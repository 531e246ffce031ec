package exp

import (
	"fmt"

	"aquago/internal/adapt"
	"aquago/internal/channel"
	"aquago/internal/modem"
)

func init() {
	register("tab-preamble", TabPreambleDetection)
}

// TabPreambleDetection reproduces the §3 text numbers: preamble
// detection rate over 180 transmissions per distance (paper: 0.99,
// 1.0, 1.0, 0.96 at 5/10/20/30 m) and the feedback symbol error rate
// (~1 %, with errors confusing adjacent bins).
func TabPreambleDetection(cfg RunConfig) (Report, error) {
	cfg = cfg.withDefaults()
	rep := Report{
		ID:    "tab-preamble",
		Title: "Preamble detection and feedback decoding rates (lake)",
	}
	preambles := 180
	if cfg.Quick {
		preambles = 30
	}
	distances := []float64{5, 10, 20, 30}

	// One job per (distance, preamble); workers share a
	// modem/detector/selector/feedback quartet.
	type preambleState struct {
		m   *modem.Modem
		det *modem.Detector
		sel *adapt.Selector
		fb  *adapt.Feedback
	}
	type outcome struct {
		detected       bool
		fbTried, fbErr bool
	}
	outcomes, err := parallelMapState(cfg.Workers, len(distances)*preambles,
		func() (preambleState, error) {
			m, err := modem.New(modem.DefaultConfig())
			if err != nil {
				return preambleState{}, err
			}
			return preambleState{m: m, det: modem.NewDetector(m),
				sel: adapt.NewSelector(), fb: adapt.NewFeedback(m)}, nil
		},
		func(st preambleState, i int) (outcome, error) {
			m := st.m
			dist := distances[i/preambles]
			tr := i % preambles
			var o outcome
			link, err := channel.NewLink(channel.LinkParams{
				Env: channel.Lake, DistanceM: dist,
				Seed: cfg.Seed + int64(tr)*53 + int64(dist)*7,
			})
			if err != nil {
				return o, err
			}
			rx := link.TransmitAt(m.Preamble(), float64(tr))
			d, ok := st.det.Detect(rx)
			o.detected = ok
			// Feedback measurement mirrors the protocol: Bob selects a
			// band from the received preamble (the paper's feedback
			// always carries *selected* bands, never arbitrary ones)
			// and signals it over the reverse channel.
			if ok && tr%3 == 0 && d.Offset+m.PreambleLen() <= len(rx) {
				est, err := m.EstimateChannel(rx[d.Offset : d.Offset+m.PreambleLen()])
				if err != nil {
					return o, err
				}
				band, found := st.sel.Select(est.SNRdB)
				if !found {
					return o, nil
				}
				rev, err := link.Reverse()
				if err != nil {
					return o, err
				}
				sym, err := st.fb.Encode(band)
				if err != nil {
					return o, err
				}
				rxFB := rev.TransmitAt(sym, float64(tr))
				got, ok := st.fb.Decode(rxFB, m.Config().N(), 8)
				o.fbTried = true
				o.fbErr = !ok || got != band
			}
			return o, nil
		})
	if err != nil {
		return rep, err
	}

	detection := Series{Name: "preamble detection rate", XLabel: "distance m", YLabel: "rate"}
	fbErrors := Series{Name: "feedback decode error rate", XLabel: "distance m", YLabel: "rate"}
	for di, dist := range distances {
		detected := 0
		fbErrs, fbTot := 0, 0
		for tr := 0; tr < preambles; tr++ {
			o := outcomes[di*preambles+tr]
			if o.detected {
				detected++
			}
			if o.fbTried {
				fbTot++
				if o.fbErr {
					fbErrs++
				}
			}
		}
		rate := float64(detected) / float64(preambles)
		detection.X = append(detection.X, dist)
		detection.Y = append(detection.Y, rate)
		fbRate := float64(fbErrs) / float64(fbTot)
		fbErrors.X = append(fbErrors.X, dist)
		fbErrors.Y = append(fbErrors.Y, fbRate)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%.0f m: detection %.3f (paper 0.96-1.0), feedback errors %.3f (paper ~0.01)",
			dist, rate, fbRate))
	}
	rep.Series = []Series{detection, fbErrors}
	return rep, nil
}
