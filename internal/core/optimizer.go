package core

import "sort"

// nativeServes reports whether the engine's native posting-list executor
// will serve the given seeker kind. With every relational seeker family
// (KW, SC, MC, C) served natively, the minisql interpreter is reachable
// only through NoNativeExec (-no-native) or raw SQL; the semantic seeker
// runs on its ANN side-index regardless of this switch.
func (e *Engine) nativeServes(k SeekerKind) bool {
	if e.NoNativeExec {
		return false
	}
	switch k {
	case KW, SC, MC, C:
		return true
	default:
		return false
	}
}

// ruleRank orders seeker kinds per the rule-based optimizer (§VII-B):
// Rule 1 — the keyword seeker always executes first; Rule 2 — the MC seeker
// always executes last; Rule 3 — SC is prioritized over C.
func ruleRank(k SeekerKind) int {
	switch k {
	case KW:
		return 0
	case SC, Semantic:
		return 1
	case C:
		return 2
	case MC:
		return 3
	default:
		return 4
	}
}

// executionGroup is a set of seeker nodes whose relative execution order is
// free (§VII-B): seekers feeding the same Intersection combiner, each
// consumed by that combiner alone (rewriting a shared seeker would leak the
// restriction to its other consumers and break Theorem 1).
type executionGroup struct {
	combiner string   // owning Intersect combiner node
	members  []string // seeker node ids, in plan insertion order
}

// findExecutionGroups builds the hyper-DAG's execution groups: one per
// Intersection combiner with at least two exclusively-owned seeker inputs.
func (p *Plan) findExecutionGroups() []executionGroup {
	consumers := p.consumers()
	var groups []executionGroup
	for _, id := range p.order {
		n := p.nodes[id]
		if n.isSeeker() || n.combiner.Kind() != Intersect {
			continue
		}
		var members []string
		for _, in := range n.inputs {
			inNode := p.nodes[in]
			if inNode == nil || !inNode.isSeeker() {
				continue
			}
			if len(consumers[in]) != 1 {
				continue
			}
			// Approximate operators stay outside execution groups:
			// reordering them could change their result set (§IX), so
			// they run standalone and unrewritten.
			if inNode.seeker.Kind() == Semantic {
				continue
			}
			members = append(members, in)
		}
		if len(members) >= 2 {
			groups = append(groups, executionGroup{combiner: id, members: members})
		}
	}
	return groups
}

// rankSeekers orders the execution-group members: rule-based ranking across
// kinds, the seekers' index-frequency work estimates within a kind. The
// sort is stable over plan insertion order, keeping optimization
// deterministic.
func (v *view) rankSeekers(p *Plan, members []string) []string {
	type ranked struct {
		id   string
		rule int
		cost float64
	}
	rs := make([]ranked, len(members))
	for i, id := range members {
		s := p.nodes[id].seeker
		rs[i] = ranked{id: id, rule: ruleRank(s.Kind()), cost: s.estimate(v.sn.store)}
	}
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].rule != rs[b].rule {
			return rs[a].rule < rs[b].rule
		}
		return rs[a].cost < rs[b].cost
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return out
}

// workEstimate prices a seeker input as card query values × their average
// posting length (at least 1) × cols columns, a proxy for the postings the
// seeker reads. The frequencies are the dictionary's exact per-value
// counts summed over shards, so the estimate needs no training and does
// not depend on the shard count.
func workEstimate(card int, avgFreq float64, cols int) float64 {
	if avgFreq < 1 {
		avgFreq = 1
	}
	return float64(card) * avgFreq * float64(cols)
}
