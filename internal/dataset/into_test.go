package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"datastall/internal/race"
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

// epochShardsFrozen is the historical EpochShards construction, kept as the
// oracle: a fresh rand.Perm per epoch, cut into consecutive per-shard
// chunks, each built by append.
func epochShardsFrozen(d *Dataset, n, epoch int, seed int64) []Shard {
	perm := rand.New(rand.NewSource(seed ^ (int64(epoch)+1)*104729)).Perm(d.NumItems)
	per := (d.NumItems + n - 1) / n
	shards := make([]Shard, n)
	for i, p := range perm {
		shards[i/per].Items = append(shards[i/per].Items, ItemID(p))
	}
	return shards
}

// equalShards reports the first difference between two shard lists.
func equalShards(got, want []Shard) (string, bool) {
	if len(got) != len(want) {
		return fmt.Sprintf("%d shards, want %d", len(got), len(want)), false
	}
	for s := range want {
		if len(got[s].Items) != len(want[s].Items) {
			return fmt.Sprintf("shard %d: len %d, want %d", s, len(got[s].Items), len(want[s].Items)), false
		}
		for i := range want[s].Items {
			if got[s].Items[i] != want[s].Items[i] {
				return fmt.Sprintf("shard %d item %d: %d, want %d", s, i, got[s].Items[i], want[s].Items[i]), false
			}
		}
	}
	return "", true
}

// TestEpochShardsIntoMatchesEpochShards: subslice-backed shards carry the
// same items as the historical per-shard-append construction, including
// when the permutation and shard buffers are recycled across epochs.
func TestEpochShardsIntoMatchesEpochShards(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 1003, TotalBytes: 1003}
	s := NewWholeRandomSampler(d, 99)
	var (
		shards []Shard
		buf    []ItemID
	)
	for epoch := 0; epoch < 3; epoch++ {
		for _, n := range []int{1, 2, 3, 4, 8} {
			want := epochShardsFrozen(d, n, epoch, 99)
			if diff, ok := equalShards(EpochShards(d, n, epoch, 99), want); !ok {
				t.Fatalf("EpochShards epoch %d n=%d: %s", epoch, n, diff)
			}
			shards, buf = s.EpochShardsInto(n, epoch, shards, buf)
			if diff, ok := equalShards(shards, want); !ok {
				t.Fatalf("EpochShardsInto epoch %d n=%d: %s", epoch, n, diff)
			}
		}
	}
}

// TestEpochShardsIntoSharedBuffer: the shards are views over one buffer —
// no per-shard copies — and together cover it exactly.
func TestEpochShardsIntoSharedBuffer(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 100, TotalBytes: 100}
	shards, buf := NewWholeRandomSampler(d, 7).EpochShardsInto(4, 1, nil, nil)
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

// TestEpochShardsIntoOverShard: over a materialised shard, the epoch shards
// hold the shard's items at the positions the whole-dataset sampler puts
// their indices.
func TestEpochShardsIntoOverShard(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 50, TotalBytes: 50}
	items := make([]ItemID, 50)
	for i := range items {
		items[i] = ItemID(1000 + 3*i)
	}
	got, _ := NewRandomSampler(Shard{Items: items}, 5).EpochShardsInto(3, 2, nil, nil)
	idx := EpochShards(d, 3, 2, 5)
	for s := range idx {
		for i, p := range idx[s].Items {
			if got[s].Items[i] != items[p] {
				t.Fatalf("shard %d item %d: %d, want %d", s, i, got[s].Items[i], items[p])
			}
		}
	}
}

// TestRandomSamplerReuseMatchesFresh: one kept sampler, asked for epochs
// out of order and repeated, gives what a fresh sampler gives for each —
// re-seeding its one rng leaves no state from the previous epoch.
func TestRandomSamplerReuseMatchesFresh(t *testing.T) {
	d := &Dataset{Name: "t", NumItems: 1003, TotalBytes: 1003}
	kept := NewWholeRandomSampler(d, 42)
	var (
		buf    []ItemID
		shards []Shard
		sbuf   []ItemID
	)
	for _, epoch := range []int{3, 0, 3, 1} {
		want := NewWholeRandomSampler(d, 42).EpochOrder(epoch)
		buf = kept.EpochOrderInto(epoch, buf)
		if diff, ok := equalShards([]Shard{{Items: buf}}, []Shard{{Items: want}}); !ok {
			t.Fatalf("EpochOrderInto epoch %d: %s", epoch, diff)
		}
		wantShards, _ := NewWholeRandomSampler(d, 42).EpochShardsInto(3, epoch, nil, nil)
		shards, sbuf = kept.EpochShardsInto(3, epoch, shards, sbuf)
		if diff, ok := equalShards(shards, wantShards); !ok {
			t.Fatalf("EpochShardsInto epoch %d: %s", epoch, diff)
		}
	}
}

// TestAllocsEpochOrderInto: once a kept sampler has its rng and the caller
// keeps the order buffer, every later epoch order and epoch shard split
// allocates nothing. Enforced in CI without race instrumentation.
func TestAllocsEpochOrderInto(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	d := &Dataset{Name: "t", NumItems: 1003, TotalBytes: 1003}
	s := NewWholeRandomSampler(d, 42)
	buf := s.EpochOrderInto(0, nil)
	shards, sbuf := s.EpochShardsInto(4, 0, nil, nil)
	epoch := 0
	if avg := testing.AllocsPerRun(20, func() {
		epoch++
		buf = s.EpochOrderInto(epoch, buf)
	}); avg != 0 {
		t.Fatalf("EpochOrderInto allocates %v objects per epoch, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		epoch++
		shards, sbuf = s.EpochShardsInto(4, epoch, shards, sbuf)
	}); avg != 0 {
		t.Fatalf("EpochShardsInto allocates %v objects per epoch, want 0", avg)
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
