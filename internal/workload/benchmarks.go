// Package workload provides the benchmark catalog and the multiprogrammed
// workloads of the paper's Table II.
//
// The paper evaluates SPEC CPU 2000 traces; those are proprietary, so each
// benchmark name maps to a synthetic trace.Profile whose working-set
// structure reproduces the published qualitative behavior of that program:
// mcf and art are cache-hungry with large footprints,
// swim/lucas/applu/mgrid stream, crafty/eon/gzip/sixtrack are compute
// bound with small working sets, twolf/vpr/parser/bzip2 have mid-size
// working sets whose miss curves bend inside a 16-way L2 — the population
// that makes way-partitioning interesting.
//
// Working-set sizes are expressed in 128-byte lines: a 2 MB 16-way L2 with
// 128 B lines holds 16384 lines across 1024 sets, so a hot set of 2048
// lines occupies about 2 ways per set.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// lines converts KB of footprint into 128-byte lines.
func lines(kb int) int { return kb * 1024 / 128 }

// catalog lists every benchmark profile, keyed by paper name.
var catalog = map[string]trace.Profile{
	// --- compute-bound, small working sets -------------------------------
	"eon": {
		Name: "eon", BaseIPC: 2.6, MemRatio: 0.16, BranchRatio: 0.12,
		BranchBias: 0.93, MLPOverlap: 0.35, L1Locality: 0.97, WriteRatio: 0.25,
		Phases: []Phase{{Insts: 4_000_000, HotLines: lines(32), HotWeight: 0.98, ColdWeight: 0.02}},
	},
	"crafty": {
		Name: "crafty", BaseIPC: 2.3, MemRatio: 0.18, BranchRatio: 0.14,
		BranchBias: 0.88, MLPOverlap: 0.3, L1Locality: 0.96, WriteRatio: 0.20,
		Phases: []Phase{{Insts: 4_000_000, HotLines: lines(64), HotWeight: 0.97, ColdWeight: 0.03}},
	},
	"gzip": {
		Name: "gzip", BaseIPC: 1.9, MemRatio: 0.22, BranchRatio: 0.13,
		BranchBias: 0.9, MLPOverlap: 0.35, L1Locality: 0.96, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.9, HotCyclic: 0.40,
			StreamLines: lines(512), StreamWeight: 0.09, ColdWeight: 0.01}},
	},
	"sixtrack": {
		Name: "sixtrack", BaseIPC: 2.1, MemRatio: 0.17, BranchRatio: 0.05,
		BranchBias: 0.97, MLPOverlap: 0.45, L1Locality: 0.96, WriteRatio: 0.20,
		Phases: []Phase{{Insts: 4_000_000, HotLines: lines(96), HotWeight: 0.97, ColdWeight: 0.03}},
	},
	"mesa": {
		Name: "mesa", BaseIPC: 2.0, MemRatio: 0.2, BranchRatio: 0.08,
		BranchBias: 0.94, MLPOverlap: 0.4, L1Locality: 0.96, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.85, HotCyclic: 0.40,
			MidLines: lines(128), MidWeight: 0.13, ColdWeight: 0.02}},
	},
	"perlbmk": {
		Name: "perlbmk", BaseIPC: 1.8, MemRatio: 0.22, BranchRatio: 0.15,
		BranchBias: 0.9, MLPOverlap: 0.3, L1Locality: 0.95, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.8, HotCyclic: 0.30,
			MidLines: lines(256), MidWeight: 0.18, ColdWeight: 0.02}},
	},

	// --- mid working sets: the partitioning-sensitive population ---------
	"bzip2": {
		Name: "bzip2", BaseIPC: 1.6, MemRatio: 0.26, BranchRatio: 0.13,
		BranchBias: 0.91, MLPOverlap: 0.35, L1Locality: 0.95, WriteRatio: 0.30,
		Phases: []Phase{
			{Insts: 2_000_000, HotLines: lines(192), HotWeight: 0.75, HotCyclic: 0.45,
				MidLines: lines(192), MidWeight: 0.22, ColdWeight: 0.03},
			{Insts: 2_000_000, HotLines: lines(256), HotWeight: 0.8, HotCyclic: 0.45,
				StreamLines: lines(1024), StreamWeight: 0.17, ColdWeight: 0.03},
		},
	},
	"parser": {
		Name: "parser", BaseIPC: 1.3, MemRatio: 0.28, BranchRatio: 0.16,
		BranchBias: 0.88, MLPOverlap: 0.2, L1Locality: 0.93, WriteRatio: 0.25,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.6, HotCyclic: 0.40,
			MidLines: lines(256), MidWeight: 0.36, ColdWeight: 0.04}},
	},
	"twolf": {
		Name: "twolf", BaseIPC: 1.1, MemRatio: 0.3, BranchRatio: 0.14,
		BranchBias: 0.87, MLPOverlap: 0.2, L1Locality: 0.93, WriteRatio: 0.25,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(192), HotWeight: 0.55, HotCyclic: 0.55,
			MidLines: lines(256), MidWeight: 0.42, ColdWeight: 0.03}},
	},
	"vpr": {
		Name: "vpr", BaseIPC: 1.2, MemRatio: 0.29, BranchRatio: 0.13,
		BranchBias: 0.88, MLPOverlap: 0.2, L1Locality: 0.93, WriteRatio: 0.25,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(192), HotWeight: 0.6, HotCyclic: 0.55,
			MidLines: lines(192), MidWeight: 0.37, ColdWeight: 0.03}},
	},
	"vortex": {
		Name: "vortex", BaseIPC: 1.4, MemRatio: 0.25, BranchRatio: 0.14,
		BranchBias: 0.92, MLPOverlap: 0.3, L1Locality: 0.94, WriteRatio: 0.35,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(256), HotWeight: 0.62, HotCyclic: 0.50,
			MidLines: lines(256), MidWeight: 0.34, ColdWeight: 0.04}},
	},
	"gcc": {
		Name: "gcc", BaseIPC: 1.5, MemRatio: 0.24, BranchRatio: 0.17,
		BranchBias: 0.89, MLPOverlap: 0.25, L1Locality: 0.94, WriteRatio: 0.30,
		Phases: []Phase{
			{Insts: 2_000_000, HotLines: lines(256), HotWeight: 0.6, HotCyclic: 0.35,
				MidLines: lines(512), MidWeight: 0.3, ColdWeight: 0.1},
			{Insts: 1_500_000, HotLines: lines(256), HotWeight: 0.8, HotCyclic: 0.35,
				StreamLines: lines(2048), StreamWeight: 0.15, ColdWeight: 0.05},
		},
	},
	"apsi": {
		Name: "apsi", BaseIPC: 1.4, MemRatio: 0.26, BranchRatio: 0.06,
		BranchBias: 0.96, MLPOverlap: 0.45, L1Locality: 0.94, WriteRatio: 0.30,
		Phases: []Phase{
			{Insts: 2_500_000, HotLines: lines(192), HotWeight: 0.9, HotCyclic: 0.60, ColdWeight: 0.1},
			{Insts: 2_500_000, HotLines: lines(512), HotWeight: 0.92, HotCyclic: 0.60, ColdWeight: 0.08},
		},
	},
	"facerec": {
		Name: "facerec", BaseIPC: 1.3, MemRatio: 0.27, BranchRatio: 0.05,
		BranchBias: 0.97, MLPOverlap: 0.5, L1Locality: 0.94, WriteRatio: 0.25,
		Phases: []Phase{
			{Insts: 2_000_000, HotLines: lines(256), HotWeight: 0.7, HotCyclic: 0.60,
				StreamLines: lines(2048), StreamWeight: 0.28, ColdWeight: 0.02},
			{Insts: 2_000_000, HotLines: lines(320), HotWeight: 0.93, HotCyclic: 0.60, ColdWeight: 0.07},
		},
	},
	"galgel": {
		Name: "galgel", BaseIPC: 1.2, MemRatio: 0.28, BranchRatio: 0.04,
		BranchBias: 0.97, MLPOverlap: 0.45, L1Locality: 0.94, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(384), HotWeight: 0.94, HotCyclic: 0.70, ColdWeight: 0.06}},
	},
	"wupwise": {
		Name: "wupwise", BaseIPC: 1.6, MemRatio: 0.24, BranchRatio: 0.04,
		BranchBias: 0.98, MLPOverlap: 0.5, L1Locality: 0.94, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(256), HotWeight: 0.75, HotCyclic: 0.50,
			StreamLines: lines(4096), StreamWeight: 0.23, ColdWeight: 0.02}},
	},
	"gap": {
		Name: "gap", BaseIPC: 1.4, MemRatio: 0.25, BranchRatio: 0.12,
		BranchBias: 0.9, MLPOverlap: 0.35, L1Locality: 0.94, WriteRatio: 0.25,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.62,
			StreamLines: lines(2048), StreamWeight: 0.35, ColdWeight: 0.03}},
	},

	// --- memory-bound / streaming ----------------------------------------
	"equake": {
		Name: "equake", BaseIPC: 0.9, MemRatio: 0.32, BranchRatio: 0.07,
		BranchBias: 0.95, MLPOverlap: 0.4, L1Locality: 0.92, WriteRatio: 0.20,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(192), HotWeight: 0.5, HotCyclic: 0.50,
			MidLines: lines(512), MidWeight: 0.42, ColdWeight: 0.08}},
	},
	"fma3d": {
		Name: "fma3d", BaseIPC: 1.0, MemRatio: 0.3, BranchRatio: 0.06,
		BranchBias: 0.96, MLPOverlap: 0.4, L1Locality: 0.92, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(256), HotWeight: 0.72, HotCyclic: 0.50,
			MidLines: lines(256), MidWeight: 0.2, ColdWeight: 0.08}},
	},
	"applu": {
		Name: "applu", BaseIPC: 1.0, MemRatio: 0.3, BranchRatio: 0.04,
		BranchBias: 0.98, MLPOverlap: 0.55, L1Locality: 0.91, WriteRatio: 0.35,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.3,
			StreamLines: lines(3072) * 8, StreamWeight: 0.66, ColdWeight: 0.04}},
	},
	"mgrid": {
		Name: "mgrid", BaseIPC: 0.95, MemRatio: 0.31, BranchRatio: 0.03,
		BranchBias: 0.98, MLPOverlap: 0.55, L1Locality: 0.91, WriteRatio: 0.30,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(128), HotWeight: 0.25,
			MidLines: lines(512), MidWeight: 0.15,
			StreamLines: lines(3072) * 8, StreamWeight: 0.56, ColdWeight: 0.04}},
	},
	"lucas": {
		Name: "lucas", BaseIPC: 0.9, MemRatio: 0.3, BranchRatio: 0.03,
		BranchBias: 0.98, MLPOverlap: 0.5, L1Locality: 0.90, WriteRatio: 0.35,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(64), HotWeight: 0.2,
			StreamLines: lines(4096) * 8, StreamWeight: 0.72, ColdWeight: 0.08}},
	},
	"swim": {
		Name: "swim", BaseIPC: 0.8, MemRatio: 0.34, BranchRatio: 0.03,
		BranchBias: 0.98, MLPOverlap: 0.6, L1Locality: 0.90, WriteRatio: 0.40,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(64), HotWeight: 0.12,
			StreamLines: lines(4096) * 8, StreamWeight: 0.78, ColdWeight: 0.1}},
	},

	// --- cache-hungry -----------------------------------------------------
	"art": {
		Name: "art", BaseIPC: 0.6, MemRatio: 0.36, BranchRatio: 0.05,
		BranchBias: 0.95, MLPOverlap: 0.3, L1Locality: 0.86, WriteRatio: 0.20,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(1024), HotWeight: 0.92, HotCyclic: 0.80, ColdWeight: 0.08}},
	},
	"mcf": {
		Name: "mcf", BaseIPC: 0.45, MemRatio: 0.38, BranchRatio: 0.12,
		BranchBias: 0.86, MLPOverlap: 0.15, L1Locality: 0.82, WriteRatio: 0.20,
		Phases: []Phase{{Insts: 3_000_000, HotLines: lines(768), HotWeight: 0.55, HotCyclic: 0.30,
			MidLines: lines(1536), MidWeight: 0.3, ColdWeight: 0.15}},
	},
}

// Phase is re-exported so the catalog literals above stay compact.
type Phase = trace.Phase

// aliases maps paper spellings onto catalog names (Table II uses both
// "perl" and "perlbmk").
var aliases = map[string]string{
	"perl": "perlbmk",
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the profile for a benchmark name (resolving aliases).
func Get(name string) (trace.Profile, error) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	p, ok := catalog[name]
	if !ok {
		return trace.Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustGet is Get for known-good names (catalog-driven code paths).
func MustGet(name string) trace.Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Seed returns the deterministic trace seed for a benchmark: a hash of
// its canonical name, so the same program behaves identically wherever it
// appears.
func Seed(name string) uint64 {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
