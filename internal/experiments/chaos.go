package experiments

import (
	"context"

	"ros/internal/fault"
	"ros/internal/sim"
)

// ChaosFaultSweep measures graceful degradation under injected faults: one
// canonical drive-by per frame-loss rate, reporting how many frames survived,
// how many samples were scrubbed, and whether the tag still decoded. It backs
// the measured fault-rate curve of docs/ROBUSTNESS.md: the decoder reads from
// the aggregate of azimuth samples, so losing a random subset of frames
// lowers SNR smoothly instead of breaking the read.
func ChaosFaultSweep(ctx context.Context) *Table {
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3}
	return runPoints(ctx, &Table{
		ID:    "Chaos",
		Title: "decoding under injected frame loss and sample corruption",
		Columns: []string{"drop rate", "frames kept", "dropped", "scrubbed",
			"SNR (dB)", "bits", "correct"},
		Notes: "expected: correct decode with gently falling SNR through 20% " +
			"frame loss; reads fail typed (ErrFrameCorrupt) only past the " +
			"50% loss budget",
	}, []int{0, 1, 2, 3, 4}, func(i int) []sim.DriveBy {
		seed := 190 + int64(i)
		return []sim.DriveBy{{
			BeamShaped: true,
			Seed:       seed,
			Fault:      &fault.Config{Seed: seed, FrameDropRate: rates[i], CorruptRate: rates[i]},
		}}
	}, func(t *Table, i int, outs []*sim.Outcome) {
		o := outs[0]
		correct := "no"
		if o.Correct {
			correct = "yes"
		}
		t.AddRow(f2(rates[i]), itoa(o.FramesCompleted), itoa(o.FramesDropped),
			itoa(o.SamplesScrubbed), snrCell(o), o.Bits, correct)
	})
}
