package verify

import (
	"fmt"
	"sort"
	"strings"

	"fastinvert/internal/postings"
)

// TermDiff is one term-level disagreement between two indexes.
type TermDiff struct {
	Term   string
	Kind   string // "missing" | "extra" | "length" | "doc-ids" | "unsorted" | "tfs" | "positions" | "live-docs"
	Detail string
}

// DiffReport is the structured result of comparing the pipeline's
// index ("got") against one trusted build ("want"). An empty Diffs
// slice means the indexes agree term-for-term.
type DiffReport struct {
	Name      string // the trusted build compared against
	GotTerms  int
	WantTerms int
	Diffs     []TermDiff
	Truncated bool // more diffs existed than the cap
}

// OK reports full agreement.
func (r *DiffReport) OK() bool { return len(r.Diffs) == 0 }

// String renders the report for logs and CLI output.
func (r *DiffReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: OK (%d terms)", r.Name, r.GotTerms)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d diffs (got %d terms, want %d)",
		r.Name, len(r.Diffs), r.GotTerms, r.WantTerms)
	for _, d := range r.Diffs {
		fmt.Fprintf(&sb, "\n  [%s] %q: %s", d.Kind, d.Term, d.Detail)
	}
	if r.Truncated {
		sb.WriteString("\n  ... (truncated)")
	}
	return sb.String()
}

// DiffLists compares two term -> postings mappings term-by-term:
// dictionary agreement both ways, strictly ascending docIDs in got
// (the round-robin ordering invariant), identical docID sequences and
// frequencies, and identical positional data when both sides carry
// positions (the baselines are non-positional, so positions are only
// pinned against the positional reference build). At most maxDiffs
// disagreements are recorded (<=0 selects 8).
func DiffLists(name string, got, want map[string]*postings.List, maxDiffs int) *DiffReport {
	if maxDiffs <= 0 {
		maxDiffs = 8
	}
	rep := &DiffReport{Name: name, GotTerms: len(got), WantTerms: len(want)}
	add := func(term, kind, detail string) bool {
		if len(rep.Diffs) >= maxDiffs {
			rep.Truncated = true
			return false
		}
		rep.Diffs = append(rep.Diffs, TermDiff{Term: term, Kind: kind, Detail: detail})
		return true
	}

	terms := make([]string, 0, len(want))
	for t := range want {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, term := range terms {
		w := want[term]
		g, ok := got[term]
		if !ok {
			if !add(term, "missing", fmt.Sprintf("%d postings absent from pipeline index", w.Len())) {
				return rep
			}
			continue
		}
		if d := diffTerm(g, w); d != nil {
			if !add(term, d.Kind, d.Detail) {
				return rep
			}
		}
	}
	extras := make([]string, 0)
	for t := range got {
		if _, ok := want[t]; !ok {
			extras = append(extras, t)
		}
	}
	sort.Strings(extras)
	for _, term := range extras {
		if !add(term, "extra", fmt.Sprintf("%d postings not in trusted index", got[term].Len())) {
			return rep
		}
	}
	return rep
}

// diffTerm compares one term's lists, returning nil on agreement.
func diffTerm(g, w *postings.List) *TermDiff {
	for i := 1; i < g.Len(); i++ {
		if g.DocIDs[i] <= g.DocIDs[i-1] {
			return &TermDiff{Kind: "unsorted",
				Detail: fmt.Sprintf("docID[%d]=%d after %d", i, g.DocIDs[i], g.DocIDs[i-1])}
		}
	}
	if g.Len() != w.Len() {
		return &TermDiff{Kind: "length",
			Detail: fmt.Sprintf("got %d postings, want %d", g.Len(), w.Len())}
	}
	for i := range w.DocIDs {
		if g.DocIDs[i] != w.DocIDs[i] {
			return &TermDiff{Kind: "doc-ids",
				Detail: fmt.Sprintf("docID[%d]=%d, want %d", i, g.DocIDs[i], w.DocIDs[i])}
		}
		if g.TFs[i] != w.TFs[i] {
			return &TermDiff{Kind: "tfs",
				Detail: fmt.Sprintf("tf[%d]=%d, want %d (doc %d)", i, g.TFs[i], w.TFs[i], w.DocIDs[i])}
		}
	}
	if !g.Positional() || !w.Positional() {
		return nil
	}
	for i := range w.Positions {
		gp, wp := g.Positions[i], w.Positions[i]
		if len(gp) != len(wp) {
			return &TermDiff{Kind: "positions",
				Detail: fmt.Sprintf("doc %d: %d positions, want %d", w.DocIDs[i], len(gp), len(wp))}
		}
		for j := range wp {
			if gp[j] != wp[j] {
				return &TermDiff{Kind: "positions",
					Detail: fmt.Sprintf("doc %d pos[%d]=%d, want %d", w.DocIDs[i], j, gp[j], wp[j])}
			}
		}
	}
	return nil
}
