package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"symsim/internal/bespoke"
	"symsim/internal/cliflags"
	"symsim/internal/core"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/service"
)

// Golden is the recorded output of one analysis key: the paper's Table-4
// accounting, the gate dichotomy, the bespoke netlist size and a digest
// of the tie-off list. Every run checks its outputs against these.
type Golden struct {
	Key          string `json:"key"`
	PathsCreated int    `json:"pathsCreated"`
	PathsSkipped int    `json:"pathsSkipped"`
	Cycles       uint64 `json:"cycles"`
	Exercisable  int    `json:"exercisable"`
	BespokeGates int    `json:"bespokeGates"`
	TieOffs      int    `json:"tieOffs"`
	TieOffDigest string `json:"tieOffDigest"`
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden parses the embedded golden table, keyed by Key.String().
func loadGolden() (map[string]Golden, error) {
	var rows []Golden
	if err := json.Unmarshal(goldenJSON, &rows); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g := make(map[string]Golden, len(rows))
	for _, r := range rows {
		g[r.Key] = r
	}
	for _, k := range allKeys() {
		if _, ok := g[k.String()]; !ok {
			return nil, fmt.Errorf("golden.json: no entry for %s", k)
		}
	}
	return g, nil
}

// tieOffDigest hashes a tie-off list given as "net=value" lines in gate
// order — the form the service's ResultSummary serves, so a core.Result
// and a service result digest alike.
func tieOffDigest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultTieOffs(res *core.Result) []string {
	var lines []string
	for _, t := range res.TieOffs() {
		lines = append(lines, res.Design.NetName(res.Design.Gates[t.Gate].Out)+"="+t.Value.String())
	}
	return lines
}

func summaryTieOffs(sum *service.ResultSummary) []string {
	var lines []string
	for _, t := range sum.TieOffs {
		lines = append(lines, t.Gate+"="+t.Value)
	}
	return lines
}

// observed is what one work item produced, in the golden table's terms.
// Fields a workload cannot observe are left negative and not compared.
type observed struct {
	Complete     bool
	PathsCreated int
	PathsSkipped int
	Cycles       int64
	Exercisable  int
	BespokeGates int
	TieOffs      []string
}

func fromResult(res *core.Result) observed {
	return observed{
		Complete:     res.Complete,
		PathsCreated: res.PathsCreated,
		PathsSkipped: res.PathsSkipped,
		Cycles:       int64(res.SimulatedCycles),
		Exercisable:  res.ExercisableCount,
		BespokeGates: -1,
		TieOffs:      resultTieOffs(res),
	}
}

func fromSummary(sum *service.ResultSummary) observed {
	return observed{
		Complete:     sum.Complete,
		PathsCreated: sum.PathsCreated,
		PathsSkipped: sum.PathsSkipped,
		Cycles:       int64(sum.SimulatedCycles),
		Exercisable:  sum.ExercisableCount,
		BespokeGates: -1,
		TieOffs:      summaryTieOffs(sum),
	}
}

// check compares an observed output with its golden row and returns a
// description of the first mismatch.
func check(g Golden, o observed) error {
	digest := tieOffDigest(o.TieOffs)
	switch {
	case !o.Complete:
		return fmt.Errorf("%s: analysis incomplete", g.Key)
	case o.PathsCreated >= 0 && o.PathsCreated != g.PathsCreated:
		return fmt.Errorf("%s: paths created %d, golden %d", g.Key, o.PathsCreated, g.PathsCreated)
	case o.PathsSkipped >= 0 && o.PathsSkipped != g.PathsSkipped:
		return fmt.Errorf("%s: paths skipped %d, golden %d", g.Key, o.PathsSkipped, g.PathsSkipped)
	case o.Cycles >= 0 && uint64(o.Cycles) != g.Cycles:
		return fmt.Errorf("%s: cycles %d, golden %d", g.Key, o.Cycles, g.Cycles)
	case o.Exercisable != g.Exercisable:
		return fmt.Errorf("%s: exercisable gates %d, golden %d", g.Key, o.Exercisable, g.Exercisable)
	case o.BespokeGates >= 0 && o.BespokeGates != g.BespokeGates:
		return fmt.Errorf("%s: bespoke gates %d, golden %d", g.Key, o.BespokeGates, g.BespokeGates)
	case len(o.TieOffs) != g.TieOffs || digest != g.TieOffDigest:
		return fmt.Errorf("%s: tie-offs %d (digest %.12s), golden %d (%.12s)", g.Key, len(o.TieOffs), digest, g.TieOffs, g.TieOffDigest)
	}
	return nil
}

// writeGolden runs every key once through the library flow the matrix
// workload uses and writes the golden table to path.
func writeGolden(path string) error {
	var rows []Golden
	for _, k := range allKeys() {
		p, err := report.BuildPlatform(report.Design(k.Design), k.Bench)
		if err != nil {
			return err
		}
		cfg := core.Config{Metrics: obs.NewRegistry()}
		if cfg.Policy, err = cliflags.NewPolicy(k.Policy, 4, 0); err != nil {
			return err
		}
		if cfg.MemX, err = cliflags.ParseMemX(k.MemX); err != nil {
			return err
		}
		res, err := core.Analyze(p, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		if !res.Complete {
			return fmt.Errorf("%s: analysis incomplete", k)
		}
		bsp, err := bespoke.Generate(res)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		ties := resultTieOffs(res)
		rows = append(rows, Golden{
			Key:          k.String(),
			PathsCreated: res.PathsCreated,
			PathsSkipped: res.PathsSkipped,
			Cycles:       res.SimulatedCycles,
			Exercisable:  res.ExercisableCount,
			BespokeGates: bsp.BespokeGates,
			TieOffs:      len(ties),
			TieOffDigest: tieOffDigest(ties),
		})
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
