package exact

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hardness"
)

// renderWitness prints an assignment in sorted-variable order.
func renderWitness(w map[core.Variable]int64) string {
	names := make([]string, 0, len(w))
	for v := range w {
		names = append(names, string(v))
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, v := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", v, w[core.Variable(v)])
	}
	return sb.String()
}

// renderOutcome prints a budget interruption as its reason, the work done
// and the nodes visited, or any other error as itself.
func renderOutcome(err error) string {
	var ip *engine.Interrupted
	if errors.As(err, &ip) {
		return fmt.Sprintf("interrupted %s steps=%d nodes=%d", ip.Reason, ip.Steps, ip.Stats["exact.nodes"])
	}
	return fmt.Sprintf("error %v", err)
}

func renderSolve(v *Verdict, err error) string {
	if err != nil {
		return renderOutcome(err)
	}
	return fmt.Sprintf("sat=%v refuted=%v nodes=%d witness=%s",
		v.Satisfiable, v.RefutedByPropagation, v.Nodes, renderWitness(v.Witness))
}

func renderEnumerate(ws []map[core.Variable]int64, err error) string {
	if err != nil {
		return renderOutcome(err)
	}
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = renderWitness(w)
	}
	return strings.Join(parts, " | ")
}

// TestSearchPins pins what Solve and Enumerate return on the paper's
// figures, a Theorem-1 reduction and a budget-interrupted search: verdict,
// witness, node count, the point a budget trips, and the witness lists in
// search order.
func TestSearchPins(t *testing.T) {
	y96, y96end := yearHorizon(1996, 1996)
	y98, y98end := yearHorizon(1996, 1998)
	solvable := hardness.Generate(3, true, 11)
	solvableS, err := hardness.Reduce(solvable, sys)
	if err != nil {
		t.Fatal(err)
	}
	sStart, sEnd := hardness.Horizon(solvable)
	unsolvable := hardness.Generate(3, false, 43)
	unsolvableS, err := hardness.Reduce(unsolvable, sys)
	if err != nil {
		t.Fatal(err)
	}
	uStart, uEnd := hardness.Horizon(unsolvable)
	budget := func(n int64) engine.Config {
		return engine.Config{Budget: n, Observer: engine.NewCounters()}
	}
	cases := []struct {
		name          string
		s             *core.EventStructure
		opt           Options
		limit         int
		solve, enumer string
	}{
		{"fig1a", core.Fig1a(), Options{Start: y96, End: y96end}, 3,
			"sat=true refuted=false nodes=27 witness=X0=6185116801,X1=6185203201,X2=6185174401,X3=6185203201",
			"X0=6185116801,X1=6185203201,X2=6185174401,X3=6185203201 | " +
				"X0=6185116801,X1=6185203201,X2=6185178001,X3=6185203201 | " +
				"X0=6185116801,X1=6185203201,X2=6185178001,X3=6185206801"},
		{"fig1b", core.Fig1b(), Options{Start: y98, End: y98end}, 4,
			"sat=true refuted=false nodes=6 witness=X0=6185116801,X1=6214060801,X2=6185116801,X3=6214060801",
			"X0=6185116801,X1=6214060801,X2=6185116801,X3=6214060801 | " +
				"X0=6185116801,X1=6214060801,X2=6216739201,X3=6245596801 | " +
				"X0=6216739201,X1=6245596801,X2=6216739201,X3=6245596801 | " +
				"X0=6216739201,X1=6245596801,X2=6248275201,X3=6277132801"},
		{"subset-sum k=3", solvableS, Options{Start: sStart, End: sEnd}, 2,
			"sat=true refuted=false nodes=2196 witness=U1=26265601,U2=31536001,U3=39312001,V1=26265601,V2=23587201,V3=26265601,X1=28857601,X2=28857601,X3=36633601,X4=49852801",
			"U1=26265601,U2=31536001,U3=39312001,V1=26265601,V2=23587201,V3=26265601,X1=28857601,X2=28857601,X3=36633601,X4=49852801 | " +
				"U1=104976001,U2=110246401,U3=118195201,V1=104976001,V2=102384001,V3=104976001,X1=107654401,X2=107654401,X3=115603201,X4=128822401"},
		{"subset-sum k=3 unsolvable", unsolvableS, Options{Start: uStart, End: uEnd}, 10,
			"sat=false refuted=false nodes=8312 witness=", ""},
		{"subset-sum k=3 budget", unsolvableS, Options{Start: uStart, End: uEnd, Engine: budget(6000)}, 10,
			"interrupted budget steps=6001 nodes=821", "interrupted budget steps=6001 nodes=821"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := renderSolve(Solve(sys, tc.s, tc.opt)); got != tc.solve {
				t.Errorf("Solve:\n got  %s\n want %s", got, tc.solve)
			}
			if tc.opt.Engine.Observer != nil {
				tc.opt.Engine = budget(tc.opt.Engine.Budget)
			}
			if got := renderEnumerate(Enumerate(sys, tc.s, tc.opt, tc.limit)); got != tc.enumer {
				t.Errorf("Enumerate:\n got  %s\n want %s", got, tc.enumer)
			}
		})
	}
}
