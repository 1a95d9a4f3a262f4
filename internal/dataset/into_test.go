package dataset

import (
	"math"
	"math/rand"
	"testing"
)

// TestPermIntoMatchesRandPerm: permInto must replicate rand.Perm's draw
// sequence and output exactly — shard contents across the whole experiment
// registry (and the golden suite) depend on it.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		for _, seed := range []int64{1, 7, 104729} {
			want := rand.New(rand.NewSource(seed)).Perm(n)
			got := permInto(rand.New(rand.NewSource(seed)), n, nil)
			if len(got) != len(want) {
				t.Fatalf("n=%d seed=%d: len %d, want %d", n, seed, len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("n=%d seed=%d: perm[%d] = %d, want %d", n, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEpochOrderIntoMatchesEpochOrder: the buffer-reusing path returns the
// same order as the allocating one, and reusing a buffer across epochs
// never leaks the previous epoch's contents.
func TestEpochOrderIntoMatchesEpochOrder(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 500, TotalBytes: 500}
	for _, s := range []Sampler{
		NewRandomSampler(FullShard(d), 42),
		NewSequentialSampler(FullShard(d)),
	} {
		var buf []ItemID
		for epoch := 0; epoch < 4; epoch++ {
			want := s.EpochOrder(epoch)
			buf = s.EpochOrderInto(epoch, buf)
			if len(buf) != len(want) {
				t.Fatalf("epoch %d: len %d, want %d", epoch, len(buf), len(want))
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("epoch %d: order[%d] = %d, want %d", epoch, i, buf[i], want[i])
				}
			}
		}
	}
}

// TestEpochShardsIntoMatchesEpochShards: subslice-backed shards carry the
// same items as the historical per-shard-append construction, including
// when the permutation buffer is recycled across epochs.
func TestEpochShardsIntoMatchesEpochShards(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 1003, TotalBytes: 1003}
	var buf []ItemID
	for epoch := 0; epoch < 3; epoch++ {
		for _, n := range []int{1, 2, 3, 4, 8} {
			want := EpochShards(d, n, epoch, 99)
			var got []Shard
			got, buf = EpochShardsInto(d, n, epoch, 99, buf)
			if len(got) != len(want) {
				t.Fatalf("epoch %d n=%d: %d shards, want %d", epoch, n, len(got), len(want))
			}
			for s := range want {
				if len(got[s].Items) != len(want[s].Items) {
					t.Fatalf("epoch %d n=%d shard %d: len %d, want %d",
						epoch, n, s, len(got[s].Items), len(want[s].Items))
				}
				for i := range want[s].Items {
					if got[s].Items[i] != want[s].Items[i] {
						t.Fatalf("epoch %d n=%d shard %d item %d: %d, want %d",
							epoch, n, s, i, got[s].Items[i], want[s].Items[i])
					}
				}
			}
		}
	}
}

// TestEpochShardsIntoSharedBuffer: the shards are views over one buffer —
// no per-shard copies — and together cover it exactly.
func TestEpochShardsIntoSharedBuffer(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 100, TotalBytes: 100}
	shards, buf := EpochShardsInto(d, 4, 1, 7, nil)
	total := 0
	for s, sh := range shards {
		total += len(sh.Items)
		if len(sh.Items) == 0 {
			continue
		}
		if &sh.Items[0] != &buf[s*25] {
			t.Fatalf("shard %d is not a view over the shared buffer", s)
		}
	}
	if total != d.NumItems {
		t.Fatalf("shards cover %d items, want %d", total, d.NumItems)
	}
}

// zeroEveryThird replaces every third draw of its source with 0. A zero
// Uint32 falls in int31n's rejection zone for every bound that is not a
// power of two, which real draws hit about once per 2^32/n, so it makes
// the replica's rejection loop run.
type zeroEveryThird struct {
	rand.Source
	draws int
}

func (z *zeroEveryThird) Int63() int64 {
	z.draws++
	if z.draws%3 == 0 {
		return 0
	}
	return z.Source.Int63()
}

// TestShuffleMatchesRandShuffle: shuffle must replicate rand.Shuffle's
// draw sequence and output exactly, leaving the rng in the same state (the
// next draw agrees too), including through int31n's rejection loop.
func TestShuffleMatchesRandShuffle(t *testing.T) {
	sources := map[string]func(seed int64) rand.Source{
		"plain":          rand.NewSource,
		"zeroEveryThird": func(seed int64) rand.Source { return &zeroEveryThird{Source: rand.NewSource(seed)} },
	}
	for name, src := range sources {
		for _, n := range []int{0, 1, 2, 3, 64, 4097} {
			for seed := int64(0); seed < 50; seed++ {
				wantRng := rand.New(src(seed))
				want := fillOrder(nil, n, nil)
				wantRng.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				gotRng := rand.New(src(seed))
				got := fillOrder(nil, n, nil)
				shuffle(gotRng, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d seed=%d: order[%d] = %d, want %d", name, n, seed, i, got[i], want[i])
					}
				}
				if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
					t.Fatalf("%s n=%d seed=%d: next draw %d, want %d", name, n, seed, g, w)
				}
			}
		}
	}
}

// TestWholeSamplersMatchFullShard: the whole-dataset samplers visit the
// same orders, and report the same Len, as samplers over a materialised
// FullShard.
func TestWholeSamplersMatchFullShard(t *testing.T) {
	for _, n := range []int{0, 1, 500, 1003} {
		d := &Dataset{Name: "t", NumItems: n, TotalBytes: float64(n)}
		pairs := []struct{ got, want Sampler }{
			{NewWholeRandomSampler(d, 42), NewRandomSampler(FullShard(d), 42)},
			{NewWholeSequentialSampler(d), NewSequentialSampler(FullShard(d))},
		}
		for _, p := range pairs {
			if p.got.Len() != p.want.Len() {
				t.Fatalf("n=%d %T: Len %d, want %d", n, p.got, p.got.Len(), p.want.Len())
			}
			var buf []ItemID
			for epoch := 0; epoch < 3; epoch++ {
				want := p.want.EpochOrder(epoch)
				buf = p.got.EpochOrderInto(epoch, buf)
				if len(buf) != len(want) {
					t.Fatalf("n=%d %T epoch %d: len %d, want %d", n, p.got, epoch, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("n=%d %T epoch %d: order[%d] = %d, want %d", n, p.got, epoch, i, buf[i], want[i])
					}
				}
			}
		}
	}
}

// itemBytesFrozen is the historical per-call item-size formula, kept
// verbatim: Sizes.Bytes hoists its per-dataset terms and must stay
// bit-identical to it.
func itemBytesFrozen(d *Dataset, id ItemID) float64 {
	if d.sizeSpread == 0 {
		return d.AvgItemBytes()
	}
	h := uint64(d.seed)*0x9E3779B97F4A7C15 + uint64(uint32(id))*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	u := float64(h%1_000_003) / 1_000_003.0
	return d.AvgItemBytes() * (1 + d.sizeSpread*(2*u-1))
}

// TestSizesMatchFrozenFormula: every item of every catalog dataset at
// scale 0.01, plus a spread-free dataset, gets bit-identical sizes.
func TestSizesMatchFrozenFormula(t *testing.T) {
	ds := []*Dataset{{Name: "flat", NumItems: 100, TotalBytes: 12345}}
	for _, d := range All() {
		ds = append(ds, d.Scale(0.01))
	}
	for _, d := range ds {
		sizes := d.Sizes()
		for id := ItemID(0); int(id) < d.NumItems; id++ {
			if got, want := sizes.Bytes(id), itemBytesFrozen(d, id); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s item %d: %v, want %v", d.Name, id, got, want)
			}
		}
	}
}
