package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"sfence"
	"sfence/internal/exp"
	"sfence/internal/kernels"
	"sfence/internal/machine"
	"sfence/internal/results"
)

// Digests are the recorded outputs every run is checked against: per
// simulation (cycles plus stats registry, see Digest) and per experiment
// envelope (the bytes a direct lab.Run produces).
type Digests struct {
	Kernels   map[string]string `json:"kernels"`   // "<bench>-<mode>"
	Manycore  map[string]string `json:"manycore"`  // "scale-imb-<mode>-c64"
	Suite     map[string]string `json:"suite"`     // results.Key of each suite simulation
	Envelopes map[string]string `json:"envelopes"` // experiment ID
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (*Digests, error) {
	var d Digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

// recordDigests computes every digest through the library's own entry
// points (kernels.Run and a direct lab.Run), never through the
// benchmark's step-by-step simulate, and writes them to path.
func recordDigests(ctx context.Context, path string) error {
	d := Digests{Kernels: map[string]string{}, Manycore: map[string]string{}, Suite: map[string]string{}, Envelopes: map[string]string{}}
	run := func(s simSpec) (string, error) {
		k, err := kernels.Build(s.bench, s.opts)
		if err != nil {
			return "", err
		}
		cfg := s.cfg
		cfg.Parallel.Workers = 0
		res, err := kernels.Run(ctx, k, cfg)
		if err != nil {
			return "", err
		}
		return Digest(res.Cycles, res.Snapshot), nil
	}
	for _, s := range kernelSpecs() {
		dg, err := run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		d.Kernels[s.key] = dg
	}
	for _, s := range manycoreSpecs() {
		dg, err := run(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		d.Manycore[s.key] = dg
	}

	var mu sync.Mutex
	direct := func(ctx context.Context, bench string, opts kernels.Options, cfg machine.Config) (kernels.Result, error) {
		res, err := exp.DirectRun(ctx, bench, opts, cfg)
		if err == nil {
			mu.Lock()
			d.Suite[results.Key(bench, opts, cfg)] = Digest(res.Cycles, res.Snapshot)
			mu.Unlock()
		}
		return res, err
	}
	lab := sfence.NewLab(sfence.WithScale(sfence.Quick), sfence.WithRunner(results.NewMemCache().Runner(direct)))
	for _, id := range suiteIDs() {
		res, err := lab.Run(ctx, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		env, err := res.JSON()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		d.Envelopes[id] = bytesDigest(env)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
