package serve

import (
	"bytes"
	"net/http"
	"net/url"
	"slices"
	"testing"

	"repro/internal/serve/api"
)

// FuzzPPRQuery drives a raw /v1/ppr query string through what the
// handler runs before it looks anything up or walks — the k parse, the
// source parse, the plan — against a graph of n vertices, under the
// default limits and under a budget smaller than the source limit. No
// input may panic; a rejection names a client error; an accepted plan is
// within every limit the walk kernel and the cache key rely on, and does
// not depend on the order or the repetition of the sources asked for.
// The seeds are the files under testdata/fuzz/FuzzPPRQuery.
func FuzzPPRQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawQuery string, n uint16) {
		q := (&url.URL{RawQuery: rawQuery}).Query() // what r.URL.Query() hands the handler
		k, err := api.ParsePositiveInt(q.Get("k"), 20)
		if err != nil {
			return
		}
		if k <= 0 {
			t.Fatalf("ParsePositiveInt accepted k=%d", k)
		}
		sources, err := parsePPRSources(q)
		if err != nil {
			return
		}
		for _, opts := range []PPROptions{{}, {WalksPerSource: 3, WalkBudget: 7}} {
			opts = opts.withDefaults()
			plan, status, code, err := planPPR(sources, k, int(n), opts)
			if err != nil {
				if (status != http.StatusBadRequest && status != http.StatusNotFound) || code == "" {
					t.Fatalf("rejection %q carries status %d code %q", err, status, code)
				}
				continue
			}
			if len(plan.sources) == 0 || len(plan.sources) > opts.MaxSources {
				t.Fatalf("accepted %d sources, limit %d", len(plan.sources), opts.MaxSources)
			}
			for i, s := range plan.sources {
				if int(s) >= int(n) || (i > 0 && s <= plan.sources[i-1]) {
					t.Fatalf("accepted sources %v: want strictly increasing, all below n=%d", plan.sources, n)
				}
			}
			if plan.walksPer < 1 || plan.walksPer > opts.WalksPerSource || plan.walks() > opts.WalkBudget {
				t.Fatalf("accepted plan %+v breaks WalksPerSource=%d or WalkBudget=%d", plan, opts.WalksPerSource, opts.WalkBudget)
			}
			if plan.truncated != (plan.walksPer < opts.WalksPerSource) {
				t.Fatalf("plan %+v: truncated flag disagrees with its walk count", plan)
			}
			again := append(slices.Clone(sources), sources...)
			slices.Reverse(again)
			replan, _, _, err := planPPR(again, k, int(n), opts)
			if err != nil || !slices.Equal(replan.sources, plan.sources) || !bytes.Equal(appendPPRKey(nil, 1, replan.walksPer, replan.sources), appendPPRKey(nil, 1, plan.walksPer, plan.sources)) {
				t.Fatalf("sources %v reversed and doubled plan as %v (%v), want %v", sources, replan.sources, err, plan.sources)
			}
		}
	})
}
