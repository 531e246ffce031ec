// An external test package (aquago_test, not aquago): it imports
// internal/exp, which since the macload harness drives the public
// Network API and therefore imports aquago — an in-package test file
// would close an import cycle.
package aquago_test

import (
	"testing"

	"aquago/internal/exp"
)

// One benchmark per paper artifact: each regenerates the figure or
// table through its internal/exp harness (reduced workload per
// iteration; run cmd/aquabench for the full-size series). The bench
// names mirror the per-experiment index in DESIGN.md.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(id, exp.RunConfig{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Series) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// BenchmarkFig03FrequencySelectivity regenerates Fig 3a (device-pair
// frequency selectivity).
func BenchmarkFig03FrequencySelectivity(b *testing.B) { benchExperiment(b, "fig03a") }

// BenchmarkFig03Locations regenerates Fig 3b (selectivity across
// locations).
func BenchmarkFig03Locations(b *testing.B) { benchExperiment(b, "fig03b") }

// BenchmarkFig03Reciprocity regenerates Fig 3c,d (air vs water
// channel reciprocity).
func BenchmarkFig03Reciprocity(b *testing.B) { benchExperiment(b, "fig03cd") }

// BenchmarkFig04AmbientNoise regenerates Fig 4 (noise spectra across
// devices and locations).
func BenchmarkFig04AmbientNoise(b *testing.B) { benchExperiment(b, "fig04") }

// BenchmarkFig08BERvsSNR regenerates Fig 8 (uncoded BER vs
// per-subcarrier SNR against BPSK theory).
func BenchmarkFig08BERvsSNR(b *testing.B) { benchExperiment(b, "fig08") }

// BenchmarkFig09Environments regenerates Fig 9 (bridge/park/lake PER
// and bitrate CDFs, adaptive vs fixed bands).
func BenchmarkFig09Environments(b *testing.B) { benchExperiment(b, "fig09") }

// BenchmarkFig10Depth regenerates Fig 10 (museum depth sweep).
func BenchmarkFig10Depth(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11DeepWater regenerates Fig 11 (12 m deep, hard case).
func BenchmarkFig11DeepWater(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12Range regenerates Fig 12a-c (range sweep, adaptive vs
// fixed).
func BenchmarkFig12Range(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig12LongRange regenerates Fig 12d (FSK beacons to 113 m).
func BenchmarkFig12LongRange(b *testing.B) { benchExperiment(b, "fig12d") }

// BenchmarkFig13BandVsDistance regenerates Fig 13 (selected band
// narrows with distance).
func BenchmarkFig13BandVsDistance(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14Mobility regenerates Fig 14 (mobility + differential
// coding ablation).
func BenchmarkFig14Mobility(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15Orientation regenerates Fig 15 (azimuth sweep).
func BenchmarkFig15Orientation(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16ChannelStability regenerates Fig 16 (min SNR on a
// second preamble).
func BenchmarkFig16ChannelStability(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17SubcarrierSpacing regenerates Fig 17 (50/25/10 Hz
// spacing comparison).
func BenchmarkFig17SubcarrierSpacing(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18CaseAir regenerates Fig 18 (air in the waterproof
// case).
func BenchmarkFig18CaseAir(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkFig19MAC regenerates Fig 19 (carrier-sense collision
// fractions).
func BenchmarkFig19MAC(b *testing.B) { benchExperiment(b, "fig19") }

// BenchmarkTabPreambleDetection regenerates the §3 preamble detection
// and feedback error rates.
func BenchmarkTabPreambleDetection(b *testing.B) { benchExperiment(b, "tab-preamble") }

// BenchmarkMacLoadGoodput regenerates the beyond-paper MAC
// goodput-vs-offered-load sweep on the live Network.
func BenchmarkMacLoadGoodput(b *testing.B) { benchExperiment(b, "macload") }

// BenchmarkMacCaptureSIR regenerates the beyond-paper capture-effect
// SIR survival study.
func BenchmarkMacCaptureSIR(b *testing.B) { benchExperiment(b, "macsir") }
