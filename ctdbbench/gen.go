package main

import (
	"fmt"
	"math/rand"

	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/vocab"
)

// maxContractStates is the automaton-size regime of internal/benchkit
// and EXPERIMENTS.md: a contract draw whose automaton exceeds it is
// drawn again.
const maxContractStates = 300

// projectionBudget mirrors core.DefaultProjectionBudget, the daemon's
// default subset-size bound for projection precompute.
const projectionBudget = 8

// strata split draws into bands of a cost proxy with fixed shares. A
// seed changes which inputs are drawn but not how many fall in each
// band, so the heavy tail of the cost distribution is present in every
// run in the same amount instead of by luck of the seed.
type strata struct {
	bounds []int64   // band i holds proxies below bounds[i]; the last band the rest
	shares []float64 // each band's share of the population, summing to 1
}

func (s strata) band(proxy int64) int {
	for i, b := range s.bounds {
		if proxy < b {
			return i
		}
	}
	return len(s.bounds)
}

// quotas splits n draws over the bands by largest remainder, so the
// quotas depend on n alone.
func (s strata) quotas(n int) []int {
	q := make([]int, len(s.shares))
	rem := make([]float64, len(q))
	left := n
	for i, sh := range s.shares {
		x := sh * float64(n)
		q[i] = int(x)
		rem[i] = x - float64(q[i])
		left -= q[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		q[best]++
		rem[best] = -1
	}
	return q
}

// contractStrata bands simple-class contracts by a precompute-cost
// proxy: automaton edges times the number of projection subsets
// (Σ_{i≤8} C(n,i) over the n events the labels cite). The bounds are
// the 50th, 75th, 90th, 97th and 99th percentiles of the proxy over
// 3000 accepted draws; on 300 draws the proxy correlated 0.93 with
// bisim.Precompute time, and bands cut at the first four bounds had
// mean precompute times of about 3.5, 30, 130, 460 and 2170 ms.
var contractStrata = strata{
	bounds: []int64{91_904, 461_312, 1_531_978, 4_139_100, 8_648_994},
	shares: []float64{0.50, 0.25, 0.15, 0.07, 0.02, 0.01},
}

// queryStrata band each Fig 6 query class by its automaton's edge
// count, which correlated 0.88 with opt-mode evaluation time over 240
// queries against a 64-contract corpus. Shares are measured over 4000
// draws per class.
var queryStrata = []strata{
	{bounds: []int64{5, 9}, shares: []float64{0.377, 0.513, 0.110}},
	{bounds: []int64{8, 12, 44, 76}, shares: []float64{0.234, 0.262, 0.240, 0.160, 0.104}},
	{bounds: []int64{18, 74, 202, 380}, shares: []float64{0.126, 0.365, 0.261, 0.099, 0.149}},
}

// contractInput is one generated contract plus what the benchmark
// knows about it independently of the daemon.
type contractInput struct {
	Name string
	Spec *ltl.Expr
	Src  string
	// auto is the automaton of the unrenamed shape and perm maps its
	// event ids to the contract's: event i of auto is event perm[i].
	auto *buchi.BA
	perm []int
}

// queryInput is one generated query.
type queryInput struct {
	Class string // simple | medium | complex
	Spec  *ltl.Expr
	Src   string
}

// seedFor derives an independent generator seed for one input stream
// of a run, so changing one workload's sizes never shifts another's
// draws.
func seedFor(seed int64, stream int64) int64 { return seed*1_000_003 + stream*7_919 }

func subsetCount(n, k int) int64 {
	total, c := int64(0), int64(1)
	for i := 0; i <= min(n, k); i++ {
		total += c
		c = c * int64(n-i) / int64(i+1)
	}
	return total
}

func costProxy(a *buchi.BA) int64 {
	a.EnsureEdges()
	var labelEvents vocab.Set
	for _, out := range a.Out {
		for _, e := range out {
			labelEvents = labelEvents.Union(e.Label.Vars())
		}
	}
	return int64(a.NumEdges()) * subsetCount(labelEvents.Len(), projectionBudget)
}

// baseSeed fixes the shapes of the contracts a workload registers.
// Registration cost is heavy-tailed: on independent draws of 80
// contracts, the two or three whose projection lattices take seconds
// moved register throughput by about ±16% from seed to seed. So a
// workload's contracts are one fixed stratified draw per input stream,
// and a run's seed renames their events: every seed registers automata
// of the same sizes in the same order, while the contracts' events,
// and with them every query answer, candidate set and stream verdict,
// change with the seed.
const baseSeed = 20_110_612

// drawContracts returns n satisfiable simple-class contracts (Table 2:
// five Dwyer pattern instances each) named prefix0..prefix(n-1): the
// fixed draw of input stream base, with events renamed by a
// permutation drawn from seed. The order stays fixed: bulk registration
// serializes on the database's write lock, so the order decides which
// expensive contracts overlap, and with it the set-up time.
func drawContracts(voc *vocab.Vocabulary, base, seed int64, n int, prefix string) []contractInput {
	shapes := drawShapes(voc, seedFor(baseSeed, base), n)
	rng := rand.New(rand.NewSource(seed))
	names := voc.Names()
	perm := rng.Perm(len(names))
	rename := make(map[string]string, len(names))
	for i, j := range perm {
		rename[names[i]] = names[j]
	}
	out := make([]contractInput, n)
	for i, c := range shapes {
		c.Name = fmt.Sprintf("%s%d", prefix, i)
		c.Spec = renameAtoms(c.Spec, rename)
		c.Src = c.Spec.String()
		c.perm = perm
		out[i] = c
	}
	return out
}

// renameAtoms returns a copy of f with every atom renamed.
func renameAtoms(f *ltl.Expr, rename map[string]string) *ltl.Expr {
	if f == nil {
		return nil
	}
	c := *f
	if f.Op == ltl.OpAtom {
		c.Name = rename[f.Name]
	}
	c.Left, c.Right = renameAtoms(f.Left, rename), renameAtoms(f.Right, rename)
	return &c
}

// drawShapes draws n satisfiable simple-class contracts, redrawing any
// whose automaton exceeds maxContractStates and filling the cost bands
// in their fixed shares.
func drawShapes(voc *vocab.Vocabulary, seed int64, n int) []contractInput {
	gen := datagen.New(voc, seed)
	quota := contractStrata.quotas(n)
	out := make([]contractInput, 0, n)
	for len(out) < n {
		spec := gen.Specification(datagen.SimpleContracts.Properties)
		a, err := ltl2ba.TranslateBounded(voc, spec, maxContractStates)
		if err != nil || a.IsEmpty() || a.NumStates() > maxContractStates {
			continue
		}
		band := contractStrata.band(costProxy(a))
		if quota[band] == 0 {
			continue
		}
		quota[band]--
		out = append(out, contractInput{Spec: spec, auto: a})
	}
	return out
}

var queryClassNames = []string{"simple", "medium", "complex"}

// drawQueries draws n satisfiable Fig 6 queries in equal thirds of the
// simple, medium and complex classes (1, 2 and 3 pattern instances),
// interleaved class by class, each class filling its edge-count bands
// in their fixed shares.
func drawQueries(voc *vocab.Vocabulary, seed int64, n int) []queryInput {
	gen := datagen.New(voc, seed)
	classes := datagen.QueryClasses()
	quota := make([][]int, len(classes))
	for ci := range classes {
		// Round-robin over the classes: the first n%3 get one more.
		count := n / len(classes)
		if ci < n%len(classes) {
			count++
		}
		quota[ci] = queryStrata[ci].quotas(count)
	}
	out := make([]queryInput, 0, n)
	for len(out) < n {
		ci := len(out) % len(classes)
		spec := gen.Specification(classes[ci].Properties)
		a, err := ltl2ba.Translate(voc, spec)
		if err != nil || a.IsEmpty() {
			continue
		}
		band := queryStrata[ci].band(int64(a.NumEdges()))
		if quota[ci][band] == 0 {
			continue
		}
		quota[ci][band]--
		out = append(out, queryInput{Class: queryClassNames[ci], Spec: spec, Src: spec.String()})
	}
	return out
}

// streamInput is one monitored stream: its attachments and the event
// batches the main client pushes to it, in push order.
type streamInput struct {
	Name      string
	Contracts []string
	Batches   [][][]string
}

// drawStreams attaches each of n streams to 1-3 distinct contracts and
// deals totalBatches batches of batchEvents snapshots round-robin over
// the streams. A stream's snapshots follow a random walk on its first
// contract's automaton (renamed as the contract is), restricted to states that can still reach an
// accepting cycle, so the stream mostly stays compliant and the
// frontier keeps stepping; one snapshot in 32 also sets one random
// event, which dooms or violates some attachments along the way.
func drawStreams(voc *vocab.Vocabulary, seed int64, contracts []contractInput, n, totalBatches, batchEvents int) []streamInput {
	rng := rand.New(rand.NewSource(seed))
	names := voc.Names()
	byName := make(map[string]*contractInput, len(contracts))
	live := make(map[string][]bool, len(contracts))
	for i, c := range contracts {
		c.auto.EnsureEdges()
		byName[c.Name] = &contracts[i]
		live[c.Name] = c.auto.CanReachAcceptingCycle()
	}
	out := make([]streamInput, n)
	state := make([]buchi.StateID, n)
	for i := range out {
		k := 1 + rng.Intn(3)
		perm := rng.Perm(len(contracts))[:k]
		att := make([]string, k)
		for j, p := range perm {
			att[j] = contracts[p].Name
		}
		out[i] = streamInput{Name: fmt.Sprintf("s%d", i), Contracts: att}
		state[i] = byName[att[0]].auto.Init
	}
	var edges []buchi.Edge
	for b := 0; b < totalBatches; b++ {
		si := b % n
		c, lv := byName[out[si].Contracts[0]], live[out[si].Contracts[0]]
		batch := make([][]string, batchEvents)
		for j := range batch {
			edges = edges[:0]
			for _, e := range c.auto.Out[state[si]] {
				if lv[e.To] && e.Label.Satisfiable() {
					edges = append(edges, e)
				}
			}
			var snap vocab.Set
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				for _, id := range e.Label.Pos.IDs() {
					snap = snap.With(vocab.EventID(c.perm[id]))
				}
				state[si] = e.To
			}
			if rng.Intn(32) == 0 {
				snap = snap.With(vocab.EventID(rng.Intn(len(names))))
			}
			evs := []string{}
			for _, id := range snap.IDs() {
				evs = append(evs, names[id])
			}
			batch[j] = evs
		}
		out[si].Batches = append(out[si].Batches, batch)
	}
	return out
}
