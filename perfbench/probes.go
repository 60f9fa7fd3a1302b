package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Probes time the public per-operation functions of the simulator's
// layers with fixed iteration counts, in a process of their own. The
// parent multiplies each ns/op by the matching count from the executed
// sim.Results to estimate every kernel layer's share (<layer>.est_s).
// Each probe reports the best of probeReps repetitions: noise on a
// shared host only ever adds time.

const probeReps = 3

func best(reps int, f func() time.Duration) time.Duration {
	var min time.Duration
	for i := 0; i < reps; i++ {
		if d := f(); i == 0 || d < min {
			min = d
		}
	}
	return min
}

func nsPerOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

func probeMain() int {
	out, err := runProbes()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench probe: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return 0
}

func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	sys := config.Default()
	geo := sys.Geometry
	prof, ok := trace.ProfileByName("gcc")
	if !ok {
		return nil, fmt.Errorf("no gcc profile")
	}

	// trace: a private generator's batched fill, and a read of the
	// process-wide memoized stream after a first pass populated it.
	const records = 1 << 19
	slab := make([]trace.Record, 4096)
	fill := func(s trace.BatchStream) time.Duration {
		start := time.Now()
		for n := 0; n < records; {
			n += s.NextBatch(slab)
		}
		return time.Since(start)
	}
	seed := uint64(11)
	d := best(probeReps, func() time.Duration {
		seed++
		return fill(trace.NewGenerator(prof, geo, seed).(trace.BatchStream))
	})
	out["trace.batch_ns_per_record"] = nsPerOp(d, records)
	fill(trace.NewSharedGenerator(prof, geo, 7))
	d = best(probeReps, func() time.Duration { return fill(trace.NewSharedGenerator(prof, geo, 7)) })
	out["trace.shared_ns_per_record"] = nsPerOp(d, records)

	rng := stats.NewRNG(5)
	const addrsN = 8192
	addrs := make([]uint64, addrsN)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<30)) &^ 63
	}

	// cache: LLC accesses over a random line set larger than the LLC.
	const llcOps = 1 << 21
	llc := cache.New(sys.LLC, geo.LinesPerRow())
	d = best(probeReps, func() time.Duration {
		start := time.Now()
		for i := 0; i < llcOps; i++ {
			a := addrs[i%addrsN]
			llc.Access(a, i%3 == 0, a>>13)
		}
		return time.Since(start)
	})
	llc.Recycle()
	out["cache.access_ns"] = nsPerOp(d, llcOps)

	// dram: closed-page bank accesses at random slots of random banks.
	const dramOps = 1 << 21
	mem := dram.NewMemory(geo, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	tm := mem.Timing()
	banks := make([]*dram.Bank, addrsN)
	slots := make([]dram.RowID, addrsN)
	for i := range banks {
		banks[i] = mem.Bank(rng.Intn(mem.NumBanks()))
		slots[i] = dram.RowID(rng.Intn(geo.RowsPerBank))
	}
	var now dram.Cycles
	d = best(probeReps, func() time.Duration {
		start := time.Now()
		for i := 0; i < dramOps; i++ {
			now += 4
			banks[i%addrsN].Access(slots[i%addrsN], false, now, tm)
		}
		return time.Since(start)
	})
	mem.Recycle()
	out["dram.access_ns"] = nsPerOp(d, dramOps)

	// memctrl: demand accesses through an unprotected controller; each
	// includes its bank access and tracker update.
	const ctrlOps = 1 << 20
	mem = dram.NewMemory(geo, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	mit, err := core.New(mem, sys, stats.NewRNG(1))
	if err != nil {
		return nil, err
	}
	ctrl := memctrl.New(mem, memctrl.NewTracker(sys, geo), mit, sys.Mitigation.TS(), nil)
	locs := make([]dram.Location, addrsN)
	for i, a := range addrs {
		locs[i] = dram.DecodeAddr(geo, a)
	}
	now = 0
	d = best(probeReps, func() time.Duration {
		start := time.Now()
		for i := 0; i < ctrlOps; i++ {
			now += 40
			ctrl.Access(locs[i%addrsN], i%3 == 0, now)
		}
		return time.Since(start)
	})
	ctrl.Recycle()
	mem.Recycle()
	out["memctrl.access_ns"] = nsPerOp(d, ctrlOps)

	// core: one T_S crossing handed to each swap mechanism, with the
	// mechanism's lazy work ticked as the simulator would.
	const aggOps = 1 << 13
	for _, mc := range []struct {
		name string
		cfg  config.Mitigation
	}{
		{"rrs", config.DefaultRRS(1200)},
		{"srs", config.DefaultSRS(1200)},
		{"scale-srs", config.DefaultScaleSRS(1200)},
	} {
		s := sys
		s.Mitigation = mc.cfg
		var total time.Duration
		for rep := 0; rep < probeReps; rep++ {
			mem := dram.NewMemory(geo, dram.FromConfig(s.Timing, s.Core.ClockGHz))
			mit, err := core.New(mem, s, stats.NewRNG(uint64(rep+1)))
			if err != nil {
				return nil, err
			}
			var now dram.Cycles
			var d time.Duration
			for i := 0; i < aggOps; i++ {
				now += 20_000
				if mit.NextWork(now) <= now {
					mit.Tick(now)
				}
				start := time.Now()
				mit.OnAggressor(i%mem.NumBanks(), slots[i%addrsN], now)
				d += time.Since(start)
			}
			mem.Recycle()
			if rep == 0 || d < total {
				total = d
			}
		}
		out["core.on_aggressor_ns."+mc.name] = nsPerOp(total, aggOps)
	}

	// tracker: activations recorded by each tracker the figures use.
	const trkOps = 1 << 21
	rows := make([]int32, addrsN)
	for i := range rows {
		rows[i] = int32(rng.Intn(geo.RowsPerBank))
	}
	for _, tc := range []struct {
		name string
		kind config.TrackerKind
	}{
		{"misra-gries", config.TrackerMisraGries},
		{"hydra", config.TrackerHydra},
	} {
		s := sys
		s.Mitigation = config.DefaultScaleSRS(1200)
		s.Mitigation.Tracker = tc.kind
		trk := memctrl.NewTracker(s, geo)
		nb := geo.TotalBanks()
		d := best(probeReps, func() time.Duration {
			start := time.Now()
			for i := 0; i < trkOps; i++ {
				trk.RecordACT(i%nb, rows[i%addrsN])
			}
			return time.Since(start)
		})
		out["tracker.record_ns."+tc.name] = nsPerOp(d, trkOps)
	}
	return out, nil
}
