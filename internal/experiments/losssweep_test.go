package experiments

import (
	"strings"
	"testing"
)

// TestLossSweepGracefulAndBudgeted pins the loss sweep's contract: the
// perfect-channel point carries no faults and no retransmissions, every
// lossy point actually exercised the fault taxonomy, quality degrades
// gracefully (PSNR never increases as the loss rate grows), NACKed
// updates were retransmitted, and — checked inside LossSweep itself, a
// returned error here — no day's uplink ever exceeded the budget:
// retransmissions ride inside it, never on top of it.
func TestLossSweepGracefulAndBudgeted(t *testing.T) {
	res, err := LossSweep(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(lossSweepRates) {
		t.Fatalf("sweep shape: %d points, want %d", len(res.Points), len(lossSweepRates))
	}
	clean := res.Points[0]
	if clean.LossRate != 0 {
		t.Fatalf("first point at rate %v, want the perfect channel", clean.LossRate)
	}
	if clean.Link != (LossPoint{}.Link) {
		t.Fatalf("perfect channel recorded link activity: %+v", clean.Link)
	}
	if clean.MeanPSNR <= 0 {
		t.Fatalf("perfect channel PSNR %.1f", clean.MeanPSNR)
	}
	for i, p := range res.Points[1:] {
		if p.Link.UplinkUpdates == 0 || p.Link.DownlinkFrames == 0 {
			t.Fatalf("rate %v: channel never engaged: %+v", p.LossRate, p.Link)
		}
		// Mean PSNR averages over evaluable captures only; a lost downlink
		// frame REMOVES a capture from the average, which can nudge the
		// mean up by a few hundredths of a dB between adjacent rates. The
		// guard is against real quality regressions, so it tolerates that
		// composition effect.
		if prev := res.Points[i]; p.MeanPSNR > prev.MeanPSNR+0.1 {
			t.Fatalf("PSNR rose from %.2f to %.2f as loss grew %v -> %v: degradation not monotone",
				prev.MeanPSNR, p.MeanPSNR, prev.LossRate, p.LossRate)
		}
	}
	// Sub-percent rates may legitimately fire no faults over a compact
	// run's frame count; the 5% point must exercise the whole path —
	// faults, NACKs, retransmissions — and still degrade gracefully.
	// Outcomes are deterministic, so this is a stable requirement, not a
	// statistical one.
	worst := res.Points[len(res.Points)-1]
	faults := worst.Link.UplinkDropped + worst.Link.UplinkCorrupted +
		worst.Link.DownlinkDropped + worst.Link.DownlinkCorrupted
	if faults == 0 {
		t.Fatalf("rate %v: no faults fired: %+v", worst.LossRate, worst.Link)
	}
	if worst.Link.Retransmits == 0 || worst.Link.RetransmitBytes == 0 {
		t.Fatalf("rate %v: lost updates never retransmitted: %+v", worst.LossRate, worst.Link)
	}
	if worst.MeanPSNR < 20 {
		t.Fatalf("PSNR %.1f dB at %v loss: degradation not graceful", worst.MeanPSNR, worst.LossRate)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "retx") || !strings.Contains(out, "down drop") || res.ID() == "" {
		t.Fatalf("render missing columns:\n%s", out)
	}
}
