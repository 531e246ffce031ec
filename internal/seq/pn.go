package seq

// PreamblePN is the fixed 8-element sign pattern the paper multiplies
// onto the eight identical preamble OFDM symbols ([-1,1,1,1,1,1,-1,1])
// to sharpen the sliding-correlation timing metric and suppress its
// side lobes.
var PreamblePN = [8]int{-1, 1, 1, 1, 1, 1, -1, 1}
