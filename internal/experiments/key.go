// Canonical case keys for result memoization. A spec cell's cache address
// is the sha256 of a canonical JSON rendering of its *fully resolved*
// identity — the trainer.Config after every default is filled in — plus
// the engine-version salt. Resolution first, hashing second, is what makes
// the cache collapse syntactic variants: a spec that omits `batch` and a
// spec that pins the same model's reference batch hash to the same
// address, because they run the same simulation.
package experiments

import (
	"encoding/json"
	"fmt"

	"datastall/internal/memo"
)

// caseKeyJSON is the canonical key preimage. Field order is fixed by this
// struct (encoding/json emits struct fields in declaration order), and
// every field is a resolved scalar — catalog entries are represented by
// name plus the resolved numbers the run actually depends on, never by
// deep-marshalling catalog structs (which carry unexported fields a naive
// marshal would silently drop). Bump V on any change to this layout.
type caseKeyJSON struct {
	V    int    `json:"v"`
	Salt string `json:"salt"`

	Model        string  `json:"model"`
	Dataset      string  `json:"dataset"`
	Items        int     `json:"items"`
	DatasetBytes float64 `json:"dataset_bytes"`
	Server       string  `json:"server"`

	Servers  int `json:"servers"`
	GPUs     int `json:"gpus"`
	Batch    int `json:"batch"`
	Epochs   int `json:"epochs"`
	Threads  int `json:"threads_per_gpu"`
	Prefetch int `json:"prefetch_depth"`

	Framework int `json:"framework"`
	GPUPrep   int `json:"gpu_prep"`
	Loader    int `json:"loader"`
	FetchMode int `json:"fetch_mode"`

	CacheBytes  float64 `json:"cache_bytes"`
	RecordBytes float64 `json:"record_bytes"`

	DisableRemoteFetch bool  `json:"disable_remote_fetch"`
	Seed               int64 `json:"seed"`
}

// CaseKey computes the content address of one case: js resolved under o
// (exactly as RunSpec resolves a grid cell), defaults filled by the
// trainer, rendered canonically, salted, and hashed. Two (JobSpec,
// Options) pairs that would run the same simulation produce the same key;
// any engine change rotates salt and with it every address.
func CaseKey(js JobSpec, o Options, salt string) (memo.Key, error) {
	cfg, err := js.Build(o)
	if err != nil {
		return memo.Key{}, err
	}
	rc := cfg.Resolved()
	pre := caseKeyJSON{
		V: 2, Salt: salt,
		Model:   rc.Model.Name,
		Dataset: rc.Dataset.Name, Items: rc.Dataset.NumItems, DatasetBytes: rc.Dataset.TotalBytes,
		Server:  rc.Spec.Name,
		Servers: rc.NumServers, GPUs: rc.GPUsPerServer,
		Batch: rc.Batch, Epochs: rc.Epochs,
		Threads: rc.ThreadsPerGPU, Prefetch: rc.PrefetchDepth,
		Framework: int(rc.Framework), GPUPrep: int(rc.GPUPrep),
		Loader: int(rc.Loader), FetchMode: int(rc.FetchMode),
		CacheBytes: rc.CacheBytes, RecordBytes: rc.RecordBytes,
		DisableRemoteFetch: rc.DisableRemoteFetch, Seed: rc.Seed,
	}
	b, err := json.Marshal(pre)
	if err != nil {
		return memo.Key{}, fmt.Errorf("memo key: %w", err)
	}
	return memo.KeyFromPreimage(b), nil
}
