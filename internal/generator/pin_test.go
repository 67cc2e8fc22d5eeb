package generator

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"kat/internal/history"
)

// TestOutputPinned holds the generators' output byte for byte: a SHA-256
// prefix of the text rendering of Churn at the churn benchmark's
// configuration (two seeds, and a small never-quiescing one) and of KAtomic
// and Random at a few shapes. A change that moves any of these changes every
// generated benchmark and test input.
func TestOutputPinned(t *testing.T) {
	want := map[string]string{
		"churn/seed=11":      "e4d2a134574a8721",
		"churn/seed=1000003": "e0b5d787c2eb39f6",
		"churn/noquiesce":    "66004d640a8422f5",
		"katomic/{Seed:3 Ops:2000 ReadFraction:0 Concurrency:4 StalenessDepth:2 ForceDepth:true}":   "eb8f353877a38dd1",
		"random/{Seed:3 Ops:2000 ReadFraction:0 Concurrency:4 StalenessDepth:2 ForceDepth:true}":    "18e550010b84ecd3",
		"katomic/{Seed:9 Ops:500 ReadFraction:0.3 Concurrency:1 StalenessDepth:0 ForceDepth:false}": "dc43b5c8ec7fd013",
		"random/{Seed:9 Ops:500 ReadFraction:0.3 Concurrency:1 StalenessDepth:0 ForceDepth:false}":  "27c6c851991a03f4",
		"katomic/{Seed:-5 Ops:1 ReadFraction:0 Concurrency:0 StalenessDepth:0 ForceDepth:false}":    "a753d5e5fece50d1",
		"random/{Seed:-5 Ops:1 ReadFraction:0 Concurrency:0 StalenessDepth:0 ForceDepth:false}":     "a753d5e5fece50d1",
	}
	sum := func(buf []byte) string {
		d := sha256.Sum256(buf)
		return hex.EncodeToString(d[:8])
	}
	keyed := func(kops []KeyedOp) string {
		var buf []byte
		for _, o := range kops {
			buf = append(history.AppendOpText(buf, o.Key, o.Op), '\n')
		}
		return sum(buf)
	}
	ops := func(h *history.History) string {
		var buf []byte
		for _, op := range h.Ops {
			buf = append(history.AppendOpText(buf, "", op), '\n')
		}
		return sum(buf)
	}
	got := map[string]string{}
	for _, seed := range []int64{11, 1_000_003} {
		got[fmt.Sprintf("churn/seed=%d", seed)] = keyed(Churn(ChurnConfig{
			Seed: seed, Lifetimes: 31_250, OpsPerLifetime: 32,
			Concurrency: 2, ReadFraction: 0.5, NamePool: 8192,
		}))
	}
	got["churn/noquiesce"] = keyed(Churn(ChurnConfig{Seed: 4, Lifetimes: 50, OpsPerLifetime: 20, NamePool: 7, NoQuiesce: true}))
	for _, c := range []Config{
		{Seed: 3, Ops: 2000, Concurrency: 4, StalenessDepth: 2, ForceDepth: true},
		{Seed: 9, Ops: 500, Concurrency: 1, ReadFraction: 0.3},
		{Seed: -5, Ops: 1},
	} {
		got[fmt.Sprintf("katomic/%+v", c)] = ops(KAtomic(c))
		got[fmt.Sprintf("random/%+v", c)] = ops(Random(c))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: output hash %s, pinned %s", name, h, want[name])
		}
	}
}

// TestGeneratorsConcurrent draws from the shared pool of random sources on
// several goroutines at once: each history must equal the one drawn alone.
func TestGeneratorsConcurrent(t *testing.T) {
	cfg := func(g int) Config {
		return Config{Seed: int64(g), Ops: 200 + g, Concurrency: 1 + g%3, StalenessDepth: g % 2}
	}
	const goroutines = 8
	want := make([][2]*history.History, goroutines)
	for g := range want {
		want[g] = [2]*history.History{KAtomic(cfg(g)), Random(cfg(g))}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if !slices.Equal(KAtomic(cfg(g)).Ops, want[g][0].Ops) || !slices.Equal(Random(cfg(g)).Ops, want[g][1].Ops) {
					t.Errorf("goroutine %d: a history differs from the one drawn alone", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
