package main

import (
	"fmt"
	"math/rand"

	"tensat"
	"tensat/internal/tensor"
)

// The serve-mix population: shape-valid graphs sized like the zoo,
// assembled from the motifs the zoo models are made of, so the
// optimizer has real work on a first sighting but the cold share of a
// run stays small.
const (
	populationSize = 40 // distinct graphs (distinct fingerprints)
	renamedCopies  = 2  // extra spellings of each graph with renamed tensors
	minGraphNodes  = 20
	maxGraphNodes  = 120
	// Request popularity is plain Zipf, P(rank k) ∝ k^-zipfS over ranks
	// 1..populationSize. The exponent is chosen, not fitted: there is
	// no request trace of a tensatd deployment to fit it to, and
	// math/rand needs it above 1, so it is the nearest round value to
	// the classic exponent 1.
	zipfS = 1.1
)

// population is a seeded serve-mix input set: distinct graphs, each
// with renamed copies, and a request stream over them.
type population struct {
	graphs []*tensor.Graph   // distinct graphs, index = graph id
	spells [][]*tensor.Graph // spells[id][v]: v = 0 is graphs[id], v > 0 renamed
	bodies [][][]byte        // request bodies per spelling
	stream []request         // request order
}

// request names one spelling of one population graph.
type request struct{ graph, spelling int }

// newPopulation generates the graphs and a stream of n requests from
// seed. The same seed gives byte-identical graphs and the same order.
func newPopulation(seed int64, n int) (*population, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &population{}
	for id := range populationSize {
		g, err := genGraph(rng, id)
		if err != nil {
			return nil, err
		}
		if n := g.NodeCount(); n < minGraphNodes || n > maxGraphNodes {
			return nil, fmt.Errorf("graph %d has %d nodes, outside [%d, %d]", id, n, minGraphNodes, maxGraphNodes)
		}
		p.graphs = append(p.graphs, g)
	}
	for id, g := range p.graphs {
		spells := []*tensor.Graph{g}
		for c := 1; c <= renamedCopies; c++ {
			r, err := renamed(g, fmt.Sprintf("r%d", c))
			if err != nil {
				return nil, err
			}
			spells = append(spells, r)
		}
		p.spells = append(p.spells, spells)
		var bodies [][]byte
		for _, s := range spells {
			b, err := requestBody(s)
			if err != nil {
				return nil, fmt.Errorf("graph %d: %w", id, err)
			}
			bodies = append(bodies, b)
		}
		p.bodies = append(p.bodies, bodies)
	}
	// Graph id is the popularity rank.
	zipf := rand.NewZipf(rng, zipfS, 1, populationSize-1)
	for i := 0; i < n; i++ {
		p.stream = append(p.stream, request{
			graph:    int(zipf.Uint64()),
			spelling: rng.Intn(renamedCopies + 1),
		})
	}
	return p, nil
}

// renamed returns g with every input and weight renamed by prefix.
func renamed(g *tensor.Graph, prefix string) (*tensor.Graph, error) {
	mapping := make(map[string]string)
	for _, n := range g.Nodes() {
		if n.Op != tensor.OpInput && n.Op != tensor.OpWeight {
			continue
		}
		name, _, err := tensor.ParseIdent(n.Str)
		if err != nil {
			return nil, err
		}
		mapping[name] = prefix + "_" + name
	}
	return tensor.RenameTensors(g, mapping)
}

// genGraph builds graph id: a chain of fused-activation matmuls or
// convs (the bulk of the zoo's nodes) with one merge motif —
// shared-input matmuls or convs, or a concat/split branch — and at
// most two unfused activations or one residual add. Chaining merge,
// unfused or residual motifs makes the k_multi=1 e-graph grow
// quadratically, which would turn every first sighting into a
// NasRNN-sized cold job; the caps keep cold compute a small share of
// a run. Some blocks are tapped as extra outputs.
//
// The kind, size, dimensions, activations and motifs follow a fixed
// schedule over id, which is also the popularity rank; the seed
// chooses kernel sizes and where the motifs and extra outputs sit. Every seed thus draws the
// same mix of graph sizes at the same popularity, so run-to-run spread
// measures the program rather than which graph happened to be hot.
func genGraph(rng *rand.Rand, id int) (*tensor.Graph, error) {
	b := tensat.NewBuilder()
	name := func(s string, i int) string { return fmt.Sprintf("g%d_%s%d", id, s, i) }
	acts := []int64{tensor.ActNone, tensor.ActRelu, tensor.ActTanh}
	var outs []*tensor.Node
	var x *tensor.Node
	blocks := 8 + (id*17)%38
	tap := func(i int) {
		if i < blocks-1 && rng.Intn(10) == 0 {
			outs = append(outs, x)
		}
	}
	if id%2 == 0 {
		m, d := 8<<(id/2%3), 16<<(id/6%3)
		x = b.Input(name("x", 0), m, d)
		if id/2%2 == 0 { // shared-input matmuls, summed
			a := b.Matmul(tensor.ActNone, x, b.Weight(name("wa", 0), d, d))
			c := b.Matmul(tensor.ActNone, x, b.Weight(name("wb", 0), d, d))
			x = b.Ewadd(a, c)
		} else { // concat/split branch
			y := b.Matmul(tensor.ActNone, x, b.Weight(name("wc", 0), d, d))
			l, r := b.Split(1, b.Concat(1, x, y))
			x = b.Ewadd(l, r)
		}
		unfused := make(map[int]bool)
		for range id / 2 % 3 {
			unfused[1+rng.Intn(blocks)] = true
		}
		for i := 1; i <= blocks; i++ {
			if unfused[i] {
				x = b.Relu(b.Matmul(tensor.ActNone, x, b.Weight(name("w", i), d, d)))
			} else {
				x = b.Matmul(acts[(id+i)%len(acts)], x, b.Weight(name("w", i), d, d))
			}
			tap(i)
		}
		return b.Finish(append(outs, x)...)
	}
	c, hw := 4<<(id/2%2), 4<<(id/4%2)
	x = b.Input(name("img", 0), 1, c, hw, hw)
	merge, residual := rng.Intn(blocks), -1
	if id/2%2 == 1 {
		residual = rng.Intn(blocks)
	}
	for i := 0; i < blocks; i++ {
		switch i {
		case merge: // shared-input convs, concatenated then halved
			l := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, b.Weight(name("ka", i), c, c, 3, 3))
			r := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, b.Weight(name("kb", i), c, c, 1, 1))
			a, z := b.Split(1, b.Concat(1, l, r))
			x = b.Ewadd(a, z)
		case residual:
			y := b.Conv(1, 1, tensor.PadSame, tensor.ActNone, x, b.Weight(name("kr", i), c, c, 3, 3))
			x = b.Relu(b.Ewadd(x, y))
		default: // conv with fused activation
			k := 1 + 2*rng.Intn(2)
			x = b.Conv(1, 1, tensor.PadSame, acts[(id+i)%2], x, b.Weight(name("k", i), c, c, k, k))
		}
		tap(i)
	}
	return b.Finish(append(outs, x)...)
}
