package experiments

import (
	"context"
	"fmt"
	"math"

	"ros/internal/dsp"
	"ros/internal/radar"
	"ros/internal/sim"
)

// MonteCarloBER does what Sec 7.1 says the hardware evaluation cannot:
// measure the bit error rate directly. The paper converts decoding SNR to
// BER through the analytic OOK model because "directly computing bit error
// rate entails repeating the drive-through experiments millions of times
// which is infeasible" — for a simulator it is merely expensive. This
// experiment runs hundreds of noisy passes at a deliberately degraded
// operating point, counts actual bit errors, and compares the measured BER
// against the OOK prediction at the measured median SNR, closing the loop
// on the paper's Sec 7.1 methodology.
func MonteCarloBER(ctx context.Context) *Table {
	t := &Table{
		ID:    "Monte Carlo BER",
		Title: "measured bit errors vs the Sec 7.1 OOK model across a noise sweep",
		Columns: []string{"extra NF (dB)", "passes", "missed", "bits", "errors",
			"measured BER", "median SNR (dB)", "OOK BER @ median"},
		Notes: "the paper maps SNR to BER analytically because hardware " +
			"drive-throughs cannot be repeated millions of times; the " +
			"simulator counts real errors and reproduces the waterfall " +
			"(error-free at nominal noise, degrading as the link erodes). " +
			"Note the analytic OOK mapping at the MEDIAN SNR is optimistic: " +
			"errors concentrate in the low-SNR tail of reads, which a " +
			"median-based conversion cannot see",
	}

	const reads = 120
	patterns := []string{"1011", "0111", "1101", "1110", "1001", "0101", "0011", "1111"}
	return runPoints(ctx, t, []float64{0, 6, 8, 10}, func(boost float64) []sim.DriveBy {
		rcfg := radar.TI1443()
		rcfg.FrontEnd.NoiseFigureDB += boost
		cfgs := make([]sim.DriveBy, reads)
		for i := range cfgs {
			cfgs[i] = sim.DriveBy{
				Bits:         patterns[i%len(patterns)],
				BeamShaped:   true,
				StackModules: 8,
				Radar:        &rcfg,
				Seed:         int64(9000 + i),
			}
		}
		return cfgs
	}, func(t *Table, boost float64, outs []*sim.Outcome) {
		bitsTotal, bitErrors, missed := 0, 0, 0
		var snrs []float64
		for i, out := range outs {
			want := patterns[i%len(patterns)]
			if !out.Detected || len(out.Bits) != len(want) {
				missed++
				continue
			}
			for j := range out.Bits {
				bitsTotal++
				if out.Bits[j] != want[j] {
					bitErrors++
				}
			}
			if !math.IsInf(out.SNRdB, -1) {
				snrs = append(snrs, out.SNRdB)
			}
		}

		measured := "n/a"
		if bitsTotal > 0 {
			measured = fmt.Sprintf("%.4f", float64(bitErrors)/float64(bitsTotal))
		}
		medCell, ookCell := "n/a", "n/a"
		if len(snrs) > 0 {
			medSNR := dsp.Median(snrs)
			medCell = f1(medSNR)
			ookCell = fmt.Sprintf("%.4f", dsp.OOKBerFromDB(medSNR))
		}
		t.AddRow(f1(boost), itoa(reads), itoa(missed), itoa(bitsTotal),
			itoa(bitErrors), measured, medCell, ookCell)
	})
}
