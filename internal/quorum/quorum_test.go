package quorum

import (
	"testing"

	"kat/internal/core"
	"kat/internal/history"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Replicas: 0, ReadQuorum: 1, WriteQuorum: 1},
		{Replicas: 3, ReadQuorum: 0, WriteQuorum: 1},
		{Replicas: 3, ReadQuorum: 4, WriteQuorum: 1},
		{Replicas: 3, ReadQuorum: 1, WriteQuorum: 0},
		{Replicas: 3, ReadQuorum: 1, WriteQuorum: 5},
	}
	for i, cfg := range bad {
		if _, _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunProducesPreparableHistory(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h, stats, err := Run(Config{
			Seed: seed, Replicas: 3, ReadQuorum: 2, WriteQuorum: 2,
			Clients: 4, OpsPerClient: 20,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if _, err := history.Prepare(h); err != nil {
			t.Fatalf("seed %d: history not preparable: %v\n%s", seed, err, h)
		}
		if stats.CompletedWrites == 0 || stats.CompletedReads == 0 {
			t.Errorf("seed %d: no completed traffic: %+v", seed, stats)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Replicas: 5, ReadQuorum: 2, WriteQuorum: 3,
		Clients: 3, OpsPerClient: 15, ClockSkew: 5}
	a, _, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, _, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different histories")
	}
}

func TestStrictQuorumMostlyAtomic(t *testing.T) {
	// R+W > N with no skew: every read quorum intersects every write
	// quorum; histories should verify at k=1 (or at worst k=2 under
	// concurrency).
	atomic1 := 0
	total := 20
	for seed := int64(0); seed < int64(total); seed++ {
		h, _, err := Run(Config{
			Seed: seed, Replicas: 3, ReadQuorum: 2, WriteQuorum: 2,
			Clients: 3, OpsPerClient: 12,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		rep, err := core.NewVerifier().Check(h, 1, core.Options{})
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if rep.Atomic {
			atomic1++
		} else {
			// Must at least be k-atomic for some reasonable k.
			k, err := core.NewVerifier().SmallestK(h, core.Options{})
			if err != nil {
				t.Fatalf("SmallestK: %v", err)
			}
			if k > 3 {
				t.Errorf("seed %d: strict quorum run needed k=%d", seed, k)
			}
		}
	}
	if atomic1 < total/2 {
		t.Errorf("only %d/%d strict-quorum runs were 1-atomic", atomic1, total)
	}
}

func TestWeakQuorumShowsStaleness(t *testing.T) {
	// R+W <= N with clock skew: staleness should appear in some runs.
	sawStale := false
	for seed := int64(0); seed < 30 && !sawStale; seed++ {
		h, _, err := Run(Config{
			Seed: seed, Replicas: 5, ReadQuorum: 1, WriteQuorum: 1,
			Clients: 6, OpsPerClient: 15, ClockSkew: 20, MaxDelay: 30,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		rep, err := core.NewVerifier().Check(h, 1, core.Options{})
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		if !rep.Atomic {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("no staleness in 30 weak-quorum runs; simulator too forgiving")
	}
}

func TestCrashesStillVerifiable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h, stats, err := Run(Config{
			Seed: seed, Replicas: 5, ReadQuorum: 2, WriteQuorum: 2,
			Clients: 4, OpsPerClient: 15, CrashReplicas: 2,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.Crashes != 2 {
			t.Errorf("seed %d: crashes = %d, want 2", seed, stats.Crashes)
		}
		if _, err := history.Prepare(h); err != nil {
			t.Fatalf("seed %d: history not preparable after crashes: %v", seed, err)
		}
		// Smallest k must still be computable (bounded search).
		if _, err := core.NewVerifier().SmallestK(h, core.Options{}); err != nil {
			t.Fatalf("seed %d: SmallestK: %v", seed, err)
		}
	}
}

func TestTimeoutsHappenWithAggressiveDeadline(t *testing.T) {
	sawTimeout := false
	for seed := int64(0); seed < 10 && !sawTimeout; seed++ {
		_, stats, err := Run(Config{
			Seed: seed, Replicas: 5, ReadQuorum: 5, WriteQuorum: 5,
			Clients: 2, OpsPerClient: 10, CrashReplicas: 3,
			Timeout: 50,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.TimedOutReads+stats.TimedOutWrites > 0 {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Error("full-quorum ops against 3 crashed replicas never timed out")
	}
}

func TestSeedWritePresent(t *testing.T) {
	h, _, err := Run(Config{Seed: 1, Replicas: 3, ReadQuorum: 1, WriteQuorum: 1,
		Clients: 1, OpsPerClient: 3, ReadFraction: 0.9})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, op := range h.Ops {
		if op.IsWrite() && op.Value == 0 {
			found = true
		}
	}
	if !found {
		t.Error("seed write missing from history")
	}
}

func TestZeroOps(t *testing.T) {
	h, _, err := Run(Config{Seed: 1, Replicas: 3, ReadQuorum: 2, WriteQuorum: 2,
		Clients: 2, OpsPerClient: 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Only the seed write remains.
	if h.Len() != 1 {
		t.Errorf("ops = %d, want 1 (seed write)", h.Len())
	}
}

func TestReadRepairImprovesConsistency(t *testing.T) {
	// Weak quorums with skew: read repair should produce at least as many
	// 1-atomic runs as no repair, and strictly more in aggregate.
	base := Config{Replicas: 5, ReadQuorum: 1, WriteQuorum: 1,
		Clients: 6, OpsPerClient: 15, ClockSkew: 10, MaxDelay: 30, ReadFraction: 0.6}
	var plainOK, repairOK int
	const runs = 20
	for seed := int64(0); seed < runs; seed++ {
		cfg := base
		cfg.Seed = seed
		h, _, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep, err := core.NewVerifier().Check(h, 1, core.Options{}); err == nil && rep.Atomic {
			plainOK++
		}
		cfg.ReadRepair = true
		h, stats, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run repair: %v", err)
		}
		if stats.Repairs == 0 {
			t.Fatalf("seed %d: no repairs recorded", seed)
		}
		if rep, err := core.NewVerifier().Check(h, 1, core.Options{}); err == nil && rep.Atomic {
			repairOK++
		}
	}
	t.Logf("1-atomic runs: plain=%d/%d repair=%d/%d", plainOK, runs, repairOK, runs)
	if repairOK < plainOK {
		t.Errorf("read repair made consistency worse: %d vs %d", repairOK, plainOK)
	}
}
