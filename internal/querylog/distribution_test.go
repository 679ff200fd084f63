package querylog

import (
	"sort"
	"testing"

	"qunits/internal/imdb"
)

// Distribution properties the benchmark's query mixes depend on: the
// log's frequency shape must be zipfian-skewed, deterministic per seed,
// and stable as volume grows. A drift here silently changes what every
// benchmark workload replays, so these pin the contract.

func distUniverse(t *testing.T) *imdb.Universe {
	t.Helper()
	return imdb.MustGenerate(imdb.Config{Seed: 11, Persons: 400, Movies: 250})
}

func TestLogDeterministicPerSeed(t *testing.T) {
	u := distUniverse(t)
	cfg := DefaultGenConfig()
	cfg.Seed = 21
	a, b := Generate(u, cfg), Generate(u, cfg)
	if a.Total != b.Total || len(a.Entries) != len(b.Entries) {
		t.Fatalf("same seed diverged: %d/%d entries, %d/%d total",
			len(a.Entries), len(b.Entries), a.Total, b.Total)
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d diverged: %+v vs %+v", i, a.Entries[i], b.Entries[i])
		}
	}
	cfg.Seed = 22
	c := Generate(u, cfg)
	same := len(c.Entries) == len(a.Entries)
	if same {
		for i := range a.Entries {
			if a.Entries[i] != c.Entries[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical log")
	}
}

func TestLogFrequenciesAreZipfSkewed(t *testing.T) {
	u := distUniverse(t)
	cfg := DefaultGenConfig()
	cfg.Seed = 5
	l := Generate(u, cfg)
	if len(l.Entries) < 100 {
		t.Fatalf("log too small to measure skew: %d entries", len(l.Entries))
	}
	freqs := make([]int, len(l.Entries))
	total := 0
	for i, e := range l.Entries {
		freqs[i] = e.Freq
		total += e.Freq
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	// Zipfian head-heaviness: the top 10% of distinct queries must carry
	// well more than their uniform share of the volume.
	headN := len(freqs) / 10
	head := 0
	for _, f := range freqs[:headN] {
		head += f
	}
	if share := float64(head) / float64(total); share < 0.2 {
		t.Errorf("top 10%% of queries carry only %.0f%% of volume; not zipfian", share*100)
	}
	// And the single heaviest query must dominate the median one.
	if freqs[0] < 5*freqs[len(freqs)/2] {
		t.Errorf("head freq %d not >> median freq %d", freqs[0], freqs[len(freqs)/2])
	}
}

func TestLogShapeStableAtLargeVolume(t *testing.T) {
	u := distUniverse(t)
	headShare := func(volume int) float64 {
		cfg := DefaultGenConfig()
		cfg.Seed = 7
		cfg.Volume = volume
		l := Generate(u, cfg)
		freqs := make([]int, len(l.Entries))
		total := 0
		for i, e := range l.Entries {
			freqs[i] = e.Freq
			total += e.Freq
		}
		sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
		head := 0
		for _, f := range freqs[:len(freqs)/10] {
			head += f
		}
		return float64(head) / float64(total)
	}
	small, large := headShare(3000), headShare(60000)
	// Scaling volume 20x must not flatten the skew. (It legitimately
	// sharpens: head queries accumulate repeats linearly while the
	// distinct tail grows sublinearly, so the head's share rises with
	// volume — what would indicate a generator bug is the head share
	// *dropping* at scale.)
	if large < small-0.05 {
		t.Errorf("head share flattened with volume: %.2f at 3k vs %.2f at 60k", small, large)
	}
	if large < 0.2 || large > 0.99 {
		t.Errorf("large-volume head share %.2f outside sane zipfian range", large)
	}
}
