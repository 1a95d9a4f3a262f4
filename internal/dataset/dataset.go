// Package dataset models the training datasets from the paper (Table 1):
// item counts, per-item sizes, and the per-epoch access-order samplers used
// by the data loaders.
//
// Only the metadata of a dataset matters to the data pipeline — how many
// items there are, how large each is, and in what order an epoch visits them
// — so a Dataset is a catalog entry plus a deterministic item-size model.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// ItemID identifies a data item (an image/audio file) within a dataset.
type ItemID int32

// Dataset describes one training dataset.
type Dataset struct {
	Name       string
	Task       string  // "image", "detection", "audio"
	NumItems   int     // number of raw items
	TotalBytes float64 // total dataset size in bytes
	seed       int64
	// sizeSpread controls the lognormal-ish spread of item sizes around
	// the mean (0 = all items identical).
	sizeSpread float64
}

// AvgItemBytes returns the mean item size.
func (d *Dataset) AvgItemBytes() float64 {
	return d.TotalBytes / float64(d.NumItems)
}

// Sizes is the deterministic item-size model of a dataset. Sizes follow a
// two-point mixture around the mean (mean preserved exactly in expectation)
// so caches see realistic variance without requiring a size table in
// memory. The per-dataset terms — the mean and the seed's hash product —
// are computed once, so a fetch loop that hoists Sizes() does only the
// per-item arithmetic.
type Sizes struct {
	avg    float64
	spread float64
	seedH  uint64
}

// Sizes returns d's item-size model.
func (d *Dataset) Sizes() Sizes {
	return Sizes{
		avg:    d.AvgItemBytes(),
		spread: d.sizeSpread,
		seedH:  uint64(d.seed) * 0x9E3779B97F4A7C15,
	}
}

// UniformSizes returns the size model in which every item is b bytes: the
// model of fixed-size units such as serialized record files.
func UniformSizes(b float64) Sizes { return Sizes{avg: b} }

// Bytes returns the deterministic size of item id.
func (s Sizes) Bytes(id ItemID) float64 {
	if s.spread == 0 {
		return s.avg
	}
	// Deterministic hash of (seed, id) -> [0,1).
	h := s.seedH + uint64(uint32(id))*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	u := float64(h%1_000_003) / 1_000_003.0
	// Symmetric triangular-ish multiplier in [1-spread, 1+spread], mean 1.
	return s.avg * (1 + s.spread*(2*u-1))
}

// Scale returns a copy of d with item count and total size scaled by f
// (0 < f <= 1). Scaling items and cache bytes together preserves all hit
// ratios and rate comparisons while making simulations fast; see DESIGN.md.
func (d *Dataset) Scale(f float64) *Dataset {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("dataset: invalid scale %v", f))
	}
	n := int(math.Round(float64(d.NumItems) * f))
	if n < 64 {
		n = 64
	}
	out := *d
	out.NumItems = n
	out.TotalBytes = d.AvgItemBytes() * float64(n)
	return &out
}

// Catalog entries for the paper's datasets (Table 1). Item counts derive
// from the published dataset sizes and average item sizes the paper quotes
// (ImageNet-1k ~115 KB avg over 1.28M items; ImageNet-22k ~90 KB avg;
// OpenImages ~300 KB avg; FMA ~8.9 MB avg audio tracks).
var (
	ImageNet1K = &Dataset{
		Name: "imagenet-1k", Task: "image",
		NumItems: 1_281_167, TotalBytes: 146 * gib,
		seed: 101, sizeSpread: 0.6,
	}
	ImageNet22K = &Dataset{
		Name: "imagenet-22k", Task: "image",
		NumItems: 14_200_000, TotalBytes: 1.3 * tib,
		seed: 102, sizeSpread: 0.6,
	}
	OpenImages = &Dataset{
		Name: "openimages", Task: "image",
		NumItems: 2_255_000, TotalBytes: 645 * gib,
		seed: 103, sizeSpread: 0.6,
	}
	OpenImagesDet = &Dataset{
		Name: "openimages-det", Task: "detection",
		NumItems: 1_961_000, TotalBytes: 561 * gib,
		seed: 104, sizeSpread: 0.6,
	}
	FMA = &Dataset{
		Name: "fma", Task: "audio",
		NumItems: 106_574, TotalBytes: 950 * gib,
		seed: 105, sizeSpread: 0.3,
	}
	// Text corpora for the language models the paper's §3.1 evaluates and
	// excludes from the stall analysis (no data stalls): Wikipedia +
	// BookCorpus for BERT-Large, WMT16 En-De for GNMT.
	WikiBooks = &Dataset{
		Name: "wiki-bookcorpus", Task: "text",
		NumItems: 12_000_000, TotalBytes: 25 * gib,
		seed: 106, sizeSpread: 0.5,
	}
	WMT16 = &Dataset{
		Name: "wmt16", Task: "text",
		NumItems: 4_500_000, TotalBytes: 1.4 * gib,
		seed: 107, sizeSpread: 0.5,
	}
)

const (
	gib = 1024.0 * 1024.0 * 1024.0
	tib = 1024.0 * gib
)

// ByName returns the catalog dataset with the given name.
func ByName(name string) (*Dataset, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// All returns the catalog datasets.
func All() []*Dataset {
	return []*Dataset{ImageNet1K, ImageNet22K, OpenImages, OpenImagesDet, FMA, WikiBooks, WMT16}
}

// Sampler produces the per-epoch access order over a shard of a dataset.
type Sampler interface {
	// EpochOrder returns the item visit order for the given epoch. The
	// returned slice is owned by the caller.
	EpochOrder(epoch int) []ItemID
	// EpochOrderInto writes the epoch's visit order into buf (grown if its
	// capacity is short) and returns it — the allocation-free path for
	// callers that recycle order buffers across epochs. The contents are
	// identical to EpochOrder's.
	EpochOrderInto(epoch int, buf []ItemID) []ItemID
	// Len returns the number of items per epoch.
	Len() int
}

// Shard is a contiguous-ID subset view used to split a dataset across
// servers or HP-search jobs. Items are the global IDs in the shard.
type Shard struct {
	Items []ItemID
}

// FullShard returns a shard covering the whole dataset. Samplers over the
// whole dataset need no materialised shard: see NewWholeRandomSampler and
// NewWholeSequentialSampler.
func FullShard(d *Dataset) Shard {
	return Shard{Items: fillOrder(nil, d.NumItems, nil)}
}

// fillOrder writes items — or, when items is nil, the identity order
// 0..n-1 — into buf (grown if its capacity is short) and returns it.
func fillOrder(items []ItemID, n int, buf []ItemID) []ItemID {
	if cap(buf) < n {
		buf = make([]ItemID, n)
	} else {
		buf = buf[:n]
	}
	if items != nil {
		copy(buf, items)
		return buf
	}
	for i := range buf {
		buf[i] = ItemID(i)
	}
	return buf
}

// permInto writes the same permutation rand.Perm(n) would produce for rng
// into out (grown if its capacity is short) and returns it. It replicates
// rand.Perm's exact draw sequence — j := Intn(i+1); m[i] = m[j]; m[j] = i —
// directly over ItemIDs, so no scratch []int is allocated and shard
// contents are bit-identical to the historical ones.
func permInto(rng *rand.Rand, n int, out []ItemID) []ItemID {
	if cap(out) < n {
		out = make([]ItemID, n)
	} else {
		out = out[:n]
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		out[i] = out[j]
		out[j] = ItemID(i)
	}
	return out
}

// SplitRandom splits the dataset into n random, disjoint, near-equal shards
// using the epoch-independent seed. This is the per-job static sharding used
// by partitioned caching and coordinated prep.
func SplitRandom(d *Dataset, n int, seed int64) []Shard {
	perm := permInto(rand.New(rand.NewSource(seed)), d.NumItems, nil)
	shards := make([]Shard, n)
	for s := range shards {
		// Shard s receives items perm[s], perm[s+n], ... — exactly
		// ceil((NumItems-s)/n) of them; pre-size so the fill never
		// reallocates.
		shards[s].Items = make([]ItemID, 0, (d.NumItems-s+n-1)/n)
	}
	for i, p := range perm {
		s := i % n
		shards[s].Items = append(shards[s].Items, p)
	}
	return shards
}

// shuffle permutes buf exactly as rng.Shuffle(len(buf), swap) would. It
// replicates Shuffle's Fisher-Yates draw sequence — Int63n for indices past
// 2^31-2, then math/rand's unexported int31n (Lemire's multiply-shift with
// rejection over Uint32) — with the swap inlined, so the visit orders of
// every experiment stay bit-identical to the historical ones.
func shuffle(rng *rand.Rand, buf []ItemID) {
	i := len(buf) - 1
	for ; i > 1<<31-1-1; i-- {
		j := rng.Int63n(int64(i + 1))
		buf[i], buf[j] = buf[j], buf[i]
	}
	for ; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(rng.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(rng.Uint32()) * uint64(n)
				low = uint32(prod)
			}
		}
		j := prod >> 32
		buf[i], buf[j] = buf[j], buf[i]
	}
}

// RandomSampler visits a shard in a fresh uniform-random permutation each
// epoch — the DNN-training access pattern (random within an epoch, each item
// exactly once per epoch).
//
// A RandomSampler keeps one *rand.Rand and re-seeds it for every epoch, so
// asking for epochs in any order gives the same permutations as a fresh
// sampler would. It is not safe for concurrent use.
type RandomSampler struct {
	items []ItemID // nil: the whole dataset, IDs 0..n-1
	n     int
	seed  int64
	rng   *rand.Rand // created on first use
}

// NewRandomSampler returns a sampler over shard with the given seed.
func NewRandomSampler(shard Shard, seed int64) *RandomSampler {
	return &RandomSampler{items: shard.Items, n: len(shard.Items), seed: seed}
}

// NewWholeRandomSampler returns the sampler NewRandomSampler(FullShard(d),
// seed) would, without materialising the shard.
func NewWholeRandomSampler(d *Dataset, seed int64) *RandomSampler {
	return &RandomSampler{n: d.NumItems, seed: seed}
}

// reseed returns the sampler's rng in the state rand.New(rand.NewSource(seed))
// starts in: Rand.Seed resets the source and the Read position.
func (s *RandomSampler) reseed(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

// Len implements Sampler.
func (s *RandomSampler) Len() int { return s.n }

// EpochOrder implements Sampler.
func (s *RandomSampler) EpochOrder(epoch int) []ItemID {
	return s.EpochOrderInto(epoch, nil)
}

// EpochOrderInto implements Sampler: same permutation, caller's buffer.
func (s *RandomSampler) EpochOrderInto(epoch int, buf []ItemID) []ItemID {
	rng := s.reseed(s.seed + int64(epoch)*7919)
	buf = fillOrder(s.items, s.n, buf)
	shuffle(rng, buf)
	return buf
}

// EpochShardsInto splits the sampler's items into n random disjoint shards
// that change every epoch, as EpochShards does with the sampler's seed. The
// epoch permutation is written by index into buf (grown if its capacity is
// short), the shards are written into shards (likewise) as disjoint
// subslices of it, and both are returned for reuse next epoch.
func (s *RandomSampler) EpochShardsInto(n, epoch int, shards []Shard, buf []ItemID) ([]Shard, []ItemID) {
	buf = permInto(s.reseed(s.seed^(int64(epoch)+1)*104729), s.n, buf)
	if s.items != nil {
		for i, p := range buf {
			buf[i] = s.items[p]
		}
	}
	if cap(shards) < n {
		shards = make([]Shard, n)
	} else {
		shards = shards[:n]
	}
	per := (s.n + n - 1) / n
	for i := range shards {
		lo := min(i*per, s.n)
		shards[i] = Shard{Items: buf[lo:min(lo+per, s.n)]}
	}
	return shards, buf
}

// SequentialSampler visits the shard in file order every epoch with a small
// in-memory shuffle window — DALI-seq / TFRecord-style access (§3.3.3,
// Table 3). The on-storage access order is what the cache sees.
type SequentialSampler struct {
	items []ItemID // nil: the whole dataset, IDs 0..n-1
	n     int
}

// NewSequentialSampler returns a sampler that replays file order each epoch.
func NewSequentialSampler(shard Shard) *SequentialSampler {
	return &SequentialSampler{items: shard.Items, n: len(shard.Items)}
}

// NewWholeSequentialSampler returns the sampler
// NewSequentialSampler(FullShard(d)) would, without materialising the shard.
func NewWholeSequentialSampler(d *Dataset) *SequentialSampler {
	return &SequentialSampler{n: d.NumItems}
}

// Len implements Sampler.
func (s *SequentialSampler) Len() int { return s.n }

// EpochOrder implements Sampler.
func (s *SequentialSampler) EpochOrder(epoch int) []ItemID {
	return s.EpochOrderInto(epoch, nil)
}

// EpochOrderInto implements Sampler.
func (s *SequentialSampler) EpochOrderInto(epoch int, buf []ItemID) []ItemID {
	return fillOrder(s.items, s.n, buf)
}

// EpochShards splits the dataset into n random disjoint shards that change
// every epoch — the distributed-training partitioning where each server
// processes a random half/third/quarter of the data per epoch (§3.3.1).
func EpochShards(d *Dataset, n int, epoch int, seed int64) []Shard {
	shards, _ := NewWholeRandomSampler(d, seed).EpochShardsInto(n, epoch, nil, nil)
	return shards
}

// Batches groups an epoch order into minibatches of size b (last batch may
// be short).
func Batches(order []ItemID, b int) [][]ItemID {
	if b < 1 {
		panic("dataset: batch size must be >= 1")
	}
	var out [][]ItemID
	for i := 0; i < len(order); i += b {
		j := i + b
		if j > len(order) {
			j = len(order)
		}
		out = append(out, order[i:j])
	}
	return out
}
