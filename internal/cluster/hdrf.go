package cluster

import (
	"math"

	"repro/internal/graph"
)

// HDRF implements the High-Degree (are) Replicated First streaming
// vertex-cut partitioner of Petroni et al. (CIKM 2015). When an edge
// must replicate one of its endpoints, HDRF prefers replicating the
// higher-degree one: power-law graphs then concentrate cut vertices on
// the few hubs, yielding lower replication factors than PowerGraph's
// oblivious heuristic on skewed graphs.
//
// Lambda controls the load-balance term (Petroni et al. recommend
// values slightly above 1; the zero value selects 1.1).
type HDRF struct {
	Lambda float64
}

// Name implements Partitioner.
func (HDRF) Name() string { return "hdrf" }

// Place implements Partitioner.
func (h HDRF) Place(g *graph.Graph, machines int, seed uint64) []uint16 {
	checkMachines(machines)
	lambda := h.Lambda
	if lambda == 0 {
		lambda = 1.1
	}
	n := g.NumVertices()
	stream := streamOrder(g, seed, 0x1D2F)

	// Partial degrees (observed so far in the stream, per HDRF).
	pdeg := make([]int32, n)
	pres := newPresenceSet(n, machines)

	load := make([]int64, machines)
	var maxLoad, minLoad int64
	choice := make([]uint16, len(stream))

	for _, e := range stream {
		u, v := e.Src, e.Dst
		pdeg[u]++
		pdeg[v]++
		du, dv := float64(pdeg[u]), float64(pdeg[v])
		// Normalized degrees θ: the lower-degree endpoint gets the
		// larger θ, steering its replica credit higher so the
		// low-degree vertex is kept intact and the hub is replicated.
		thetaU := du / (du + dv)
		thetaV := 1 - thetaU
		repU, repV := 1+(1-thetaU), 1+(1-thetaV)
		denom := float64(maxLoad-minLoad) + 1

		best, bestScore := 0, math.Inf(-1)
		for m := 0; m < machines; m++ {
			rep := 0.0
			if pres.has(u, m) {
				rep += repU
			}
			if pres.has(v, m) {
				rep += repV
			}
			bal := lambda * float64(maxLoad-load[m]) / denom
			if score := rep + bal; score > bestScore {
				best, bestScore = m, score
			}
		}
		choice[e.E] = uint16(best)
		pres.set(u, best)
		pres.set(v, best)
		load[best]++
		if load[best] > maxLoad {
			maxLoad = load[best]
		}
		minLoad = load[0]
		for m := 1; m < machines; m++ {
			if load[m] < minLoad {
				minLoad = load[m]
			}
		}
	}
	return choice
}
