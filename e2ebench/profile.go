package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ppstream/internal/core"
	"ppstream/internal/models"
	"ppstream/internal/nn"
)

// storedProfile is the mnist2-engine stage profile. core.NewEngine
// otherwise profiles every stage three times by wall clock and solves
// the ILP on those times, so the thread plan changed from build to build;
// feeding it stored times through Options.ProfiledTimes makes every run
// solve the same plan. Regenerate it with the profile command.
//
//go:embed mnist2_profile.json
var storedProfile []byte

// stageProfile is the stored per-merged-stage profile of one model.
type stageProfile struct {
	Model   string    `json:"model"`
	KeyBits int       `json:"key_bits"`
	Factor  int64     `json:"factor"`
	Reps    int       `json:"reps"`
	Stages  []string  `json:"stages"`
	Times   []float64 `json:"times_s"`
	Encrypt float64   `json:"encrypt_s"`
	// Threads is the plan the ILP solved from these times for Cores
	// cores per server when the profile was taken; a run prints the plan
	// it solves.
	Cores   int   `json:"cores_per_server"`
	Threads []int `json:"threads"`
}

func loadProfile() (*stageProfile, error) {
	var p stageProfile
	if err := json.Unmarshal(storedProfile, &p); err != nil {
		return nil, fmt.Errorf("stored profile: %w", err)
	}
	if p.Model != model || p.KeyBits != keyBits || p.Factor != factor {
		return nil, fmt.Errorf("stored profile is for %s at %d bits, factor %d; want MNIST-2 at %d bits, factor %d",
			p.Model, p.KeyBits, p.Factor, keyBits, factor)
	}
	return &p, nil
}

const (
	// profileOut is where the profile command writes the stored profile,
	// relative to the repository root.
	profileOut = "e2ebench/mnist2_profile.json"
	// profileSeed seeds the key and the sample input the profile is
	// taken with.
	profileSeed = 1
	// profileReps is how many sample inferences each stage is timed over.
	profileReps = 10
)

// regenProfile implements the profile command: it profiles MNIST-2's
// merged stages with core.NewEngine (profileReps sample inferences
// each), writes the result as the stored profile, and prints the ILP
// plan it yields. With -fresh n it then builds n engines the way
// NewEngine does by default (three reps, no stored profile) and prints
// each one's plan, which measures how much the unstored plan varies.
func regenProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	build := fs.String("build", ".bench_build", "directory holding the prepared model")
	fresh := fs.Int("fresh", 0, "also print the plans of this many default-profiled engines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := newBench(workload{name: "profile"}, profileSeed, *build)
	if err != nil {
		return err
	}
	opts := b.engineOptions(nil)
	opts.ProfileReps = profileReps
	eng, err := core.NewEngine(b.net, b.key, opts)
	if err != nil {
		return err
	}
	eng.Close()
	p := stageProfile{Model: model, KeyBits: keyBits, Factor: factor, Reps: profileReps,
		Encrypt: eng.EncryptTime, Cores: topology().CoresPerServer, Threads: eng.Plan.Threads}
	for _, l := range eng.Layers {
		p.Stages = append(p.Stages, l.Name)
		p.Times = append(p.Times, l.Time)
	}
	fmt.Printf("%s profile (%d reps): times %v s, encrypt %.4f s, plan %v\n", model, profileReps, p.Times, p.Encrypt, p.Threads)
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(profileOut, append(data, '\n')); err != nil {
		return err
	}
	for i := 0; i < *fresh; i++ {
		eng, err := core.NewEngine(b.net, b.key, b.engineOptions(nil))
		if err != nil {
			return err
		}
		eng.Close()
		fmt.Printf("fresh profile %d: plan %v\n", i+1, eng.Plan.Threads)
	}
	return nil
}

// prepare implements the prepare command: it trains MNIST-2 on its
// generated dataset (deterministic: the model spec fixes the seeds) and
// stores it under <build>/models, unless it is already there; models
// trained by other builds of the benchmark are removed. Training
// runs here, in its own process, so that it counts towards neither a
// run's set-up nor its peak memory.
func prepare(args []string) error {
	fs := flag.NewFlagSet("prepare", flag.ExitOnError)
	build := fs.String("build", ".bench_build", "directory to store the model in")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := modelPath(*build)
	if err != nil {
		return err
	}
	stale, err := filepath.Glob(filepath.Join(filepath.Dir(path), model+"-*.gob"))
	if err != nil {
		return err
	}
	for _, f := range stale {
		if f != path {
			if err := os.Remove(f); err != nil {
				return err
			}
		}
	}
	if _, err := os.Stat(path); err == nil {
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	spec, err := models.ByName(model)
	if err != nil {
		return err
	}
	net, _, err := models.Prepare(spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := nn.SaveFile(net, tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// serverBin is where the build step leaves the ppserver binary.
func serverBin(build string) string { return filepath.Join(build, "ppserver") }

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
