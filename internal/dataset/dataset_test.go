package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogSizes(t *testing.T) {
	for _, d := range All() {
		if d.NumItems <= 0 || d.TotalBytes <= 0 {
			t.Fatalf("%s: bad catalog entry", d.Name)
		}
		if d.AvgItemBytes() <= 0 {
			t.Fatalf("%s: bad avg", d.Name)
		}
	}
	// Paper-quoted average sizes: ImageNet-22k ~90KB, OpenImages ~300KB.
	if avg := ImageNet22K.AvgItemBytes() / 1024; avg < 80 || avg > 110 {
		t.Fatalf("imagenet-22k avg %v KB, want ~90", avg)
	}
	if avg := OpenImages.AvgItemBytes() / 1024; avg < 250 || avg > 350 {
		t.Fatalf("openimages avg %v KB, want ~300", avg)
	}
	if avg := FMA.AvgItemBytes() / (1024 * 1024); avg < 7 || avg > 11 {
		t.Fatalf("fma avg %v MB, want ~9", avg)
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("imagenet-1k")
	if err != nil || d != ImageNet1K {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestItemBytesDeterministicAndMeanPreserving(t *testing.T) {
	d := OpenImages.Scale(0.01)
	sum := 0.0
	for i := 0; i < d.NumItems; i++ {
		a := d.Sizes().Bytes(ItemID(i))
		b := d.Sizes().Bytes(ItemID(i))
		if a != b {
			t.Fatal("item size not deterministic")
		}
		if a <= 0 {
			t.Fatalf("non-positive item size %v", a)
		}
		sum += a
	}
	mean := sum / float64(d.NumItems)
	if math.Abs(mean-d.AvgItemBytes())/d.AvgItemBytes() > 0.02 {
		t.Fatalf("mean %v deviates from %v", mean, d.AvgItemBytes())
	}
}

func TestScalePreservesAvg(t *testing.T) {
	d := ImageNet22K.Scale(0.001)
	if math.Abs(d.AvgItemBytes()-ImageNet22K.AvgItemBytes()) > 1 {
		t.Fatalf("scale changed avg: %v vs %v", d.AvgItemBytes(), ImageNet22K.AvgItemBytes())
	}
	if d.NumItems >= ImageNet22K.NumItems {
		t.Fatal("scale did not shrink")
	}
}

func TestRandomSamplerIsPermutation(t *testing.T) {
	d := ImageNet1K.Scale(0.001)
	s := NewRandomSampler(FullShard(d), 1)
	for epoch := 0; epoch < 3; epoch++ {
		order := s.EpochOrder(epoch)
		if len(order) != d.NumItems {
			t.Fatalf("epoch %d: len %d", epoch, len(order))
		}
		seen := make(map[ItemID]bool, len(order))
		for _, id := range order {
			if seen[id] {
				t.Fatalf("epoch %d: duplicate item %d", epoch, id)
			}
			seen[id] = true
		}
	}
}

func TestRandomSamplerVariesAcrossEpochs(t *testing.T) {
	d := ImageNet1K.Scale(0.001)
	s := NewRandomSampler(FullShard(d), 1)
	a, b := s.EpochOrder(0), s.EpochOrder(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("epochs suspiciously similar: %d/%d fixed points", same, len(a))
	}
}

func TestSequentialSamplerStable(t *testing.T) {
	d := ImageNet1K.Scale(0.001)
	s := NewSequentialSampler(FullShard(d))
	a, b := s.EpochOrder(0), s.EpochOrder(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sequential order changed across epochs")
		}
	}
	if a[0] != 0 || a[1] != 1 {
		t.Fatal("sequential order not file order")
	}
}

func TestSplitRandomDisjointCover(t *testing.T) {
	d := OpenImages.Scale(0.005)
	shards := SplitRandom(d, 4, 7)
	seen := make(map[ItemID]int)
	total := 0
	for _, sh := range shards {
		total += len(sh.Items)
		for _, id := range sh.Items {
			seen[id]++
		}
	}
	if total != d.NumItems {
		t.Fatalf("shards cover %d of %d", total, d.NumItems)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d in %d shards", id, n)
		}
	}
	// Near-equal sizes.
	for _, sh := range shards {
		if math.Abs(float64(len(sh.Items))-float64(d.NumItems)/4) > 1 {
			t.Fatalf("imbalanced shard: %d", len(sh.Items))
		}
	}
}

func TestEpochShardsChangeEveryEpoch(t *testing.T) {
	d := ImageNet1K.Scale(0.001)
	a := EpochShards(d, 2, 0, 1)
	b := EpochShards(d, 2, 1, 1)
	inA := make(map[ItemID]bool)
	for _, id := range a[0].Items {
		inA[id] = true
	}
	overlap := 0
	for _, id := range b[0].Items {
		if inA[id] {
			overlap++
		}
	}
	// Random re-partition: expect ~50% overlap, not ~100%.
	if overlap > len(b[0].Items)*8/10 {
		t.Fatalf("epoch shards look static: overlap %d/%d", overlap, len(b[0].Items))
	}
	// Still disjoint cover within an epoch.
	total := len(a[0].Items) + len(a[1].Items)
	if total != d.NumItems {
		t.Fatalf("epoch shards cover %d of %d", total, d.NumItems)
	}
}

func TestBatches(t *testing.T) {
	order := []ItemID{0, 1, 2, 3, 4}
	bs := Batches(order, 2)
	if len(bs) != 3 || len(bs[0]) != 2 || len(bs[2]) != 1 {
		t.Fatalf("bad batching: %v", bs)
	}
}

// Property: SplitRandom always yields disjoint shards covering the dataset.
func TestSplitRandomProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw)%8 + 1
		d := &Dataset{Name: "t", NumItems: 997, TotalBytes: 997 * 1000, seed: 1}
		shards := SplitRandom(d, n, seed)
		seen := make(map[ItemID]bool)
		total := 0
		for _, sh := range shards {
			total += len(sh.Items)
			for _, id := range sh.Items {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return total == d.NumItems
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: every epoch order from RandomSampler is a permutation of the shard.
func TestEpochOrderPermutationProperty(t *testing.T) {
	f := func(epoch uint8, seed int64) bool {
		d := &Dataset{Name: "t", NumItems: 503, TotalBytes: 503 * 1000, seed: 2}
		s := NewRandomSampler(FullShard(d), seed)
		order := s.EpochOrder(int(epoch))
		if len(order) != 503 {
			return false
		}
		seen := make([]bool, 503)
		for _, id := range order {
			if id < 0 || int(id) >= 503 || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
