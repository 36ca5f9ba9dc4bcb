package colstore

// Parallel sharded construction: world generation fills one Shard per
// cohort on whatever goroutine happens to run it, and MergeShards splices
// the shards — in cohort order — into one Index. Intern IDs are assigned
// by first occurrence in the merged row sequence, so the result does not
// depend on how the shards were distributed over workers, only on their
// order here. That makes the whole pipeline
// byte-identical for a given seed regardless of worker count.

// Shard is a privately owned column fragment with local intern tables.
// It is not safe for concurrent use; each generating goroutine owns its
// shards exclusively until MergeShards.
//
// Local interning is a backwards linear scan over the tables: rows arrive
// cohort by cohort, so a row's strings are almost always the most recently
// added entries and the scan terminates on the first probe. Maps would
// cost more than they save — a world build allocates thousands of shards,
// and three map headers plus buckets per shard once dominated the whole
// build's allocation footprint at small scale.
type Shard struct {
	names   []string
	opID    []uint32
	tldID   []uint16
	regID   []uint32
	created []int32
	keyDay  []int32
	dsDay   []int32
	fullDay []int32
	flags   []uint8

	// Local intern tables in first-use order, remapped at merge.
	ops  []string
	opNS []string
	tlds []string
	regs []string
}

// NewShard returns a shard with row-capacity hint n.
func NewShard(n int) *Shard {
	return &Shard{
		names:   make([]string, 0, n),
		opID:    make([]uint32, 0, n),
		tldID:   make([]uint16, 0, n),
		regID:   make([]uint32, 0, n),
		created: make([]int32, 0, n),
		keyDay:  make([]int32, 0, n),
		dsDay:   make([]int32, 0, n),
		fullDay: make([]int32, 0, n),
		flags:   make([]uint8, 0, n),
	}
}

// Add appends one domain to the shard, interning against the shard-local
// tables only.
func (s *Shard) Add(d Domain) {
	op := uint32(len(s.ops))
	for i := len(s.ops) - 1; i >= 0; i-- {
		if s.ops[i] == d.Operator {
			op = uint32(i)
			break
		}
	}
	if op == uint32(len(s.ops)) {
		s.ops = append(s.ops, d.Operator)
		s.opNS = append(s.opNS, d.NSHost)
	}
	tld := uint16(len(s.tlds))
	for i := len(s.tlds) - 1; i >= 0; i-- {
		if s.tlds[i] == d.TLD {
			tld = uint16(i)
			break
		}
	}
	if tld == uint16(len(s.tlds)) {
		s.tlds = append(s.tlds, d.TLD)
	}
	reg := uint32(len(s.regs))
	for i := len(s.regs) - 1; i >= 0; i-- {
		if s.regs[i] == d.Registrar {
			reg = uint32(i)
			break
		}
	}
	if reg == uint32(len(s.regs)) {
		s.regs = append(s.regs, d.Registrar)
	}
	var fl uint8
	if d.BrokenDS {
		fl |= flagBroken
	}
	if d.ExpiredSig {
		fl |= flagExpired
	}
	// fullDay is the precomputed day full deployment begins: a domain is
	// ChainValid once both halves are in place and neither breakage flag
	// is set, i.e. from max(KeyDay, DSDay) on. A broken/expired chain can
	// never validate, which is a strictly stronger condition than "has not
	// happened yet": a query AT day Never matches Never-valued events (the
	// record projection's `KeyDay <= day` comparison does), so the
	// impossible case gets its own sentinel above never.
	full := impossible
	if fl == 0 {
		full = int32(d.KeyDay)
		if int32(d.DSDay) > full {
			full = int32(d.DSDay)
		}
	}
	s.names = append(s.names, d.Name)
	s.opID = append(s.opID, op)
	s.tldID = append(s.tldID, tld)
	s.regID = append(s.regID, reg)
	s.created = append(s.created, clampDay(d.Created))
	s.keyDay = append(s.keyDay, int32(d.KeyDay))
	s.dsDay = append(s.dsDay, int32(d.DSDay))
	s.fullDay = append(s.fullDay, full)
	s.flags = append(s.flags, fl)
}

// Len returns the shard's row count.
func (s *Shard) Len() int { return len(s.names) }

// MergeShards concatenates the shards in the given order into one frozen
// Index, remapping each shard's local intern IDs onto global IDs assigned
// by first occurrence across the merged sequence. Nil shards are skipped.
// The shards must not be used afterwards.
func MergeShards(shards []*Shard) *Index {
	total := 0
	for _, s := range shards {
		if s != nil {
			total += s.Len()
		}
	}
	x := &Index{
		names:   make([]string, 0, total),
		opID:    make([]uint32, 0, total),
		tldID:   make([]uint16, 0, total),
		regID:   make([]uint32, 0, total),
		created: make([]int32, 0, total),
		keyDay:  make([]int32, 0, total),
		dsDay:   make([]int32, 0, total),
		fullDay: make([]int32, 0, total),
		flags:   make([]uint8, 0, total),
		opIDs:   make(map[string]uint32),
		tldIDs:  make(map[string]uint16),
	}
	regIDs := make(map[string]uint32)
	for _, s := range shards {
		if s == nil || s.Len() == 0 {
			continue
		}
		// Local → global remap tables for this shard.
		opMap := make([]uint32, len(s.ops))
		for li, op := range s.ops {
			g, ok := x.opIDs[op]
			if !ok {
				g = uint32(len(x.ops))
				x.opIDs[op] = g
				x.ops = append(x.ops, op)
				x.opNS = append(x.opNS, []string{s.opNS[li]})
			}
			opMap[li] = g
		}
		tldMap := make([]uint16, len(s.tlds))
		for li, tld := range s.tlds {
			g, ok := x.tldIDs[tld]
			if !ok {
				g = uint16(len(x.tlds))
				x.tldIDs[tld] = g
				x.tlds = append(x.tlds, tld)
			}
			tldMap[li] = g
		}
		regMap := make([]uint32, len(s.regs))
		for li, reg := range s.regs {
			g, ok := regIDs[reg]
			if !ok {
				g = uint32(len(x.regs))
				regIDs[reg] = g
				x.regs = append(x.regs, reg)
			}
			regMap[li] = g
		}
		x.names = append(x.names, s.names...)
		for _, id := range s.opID {
			x.opID = append(x.opID, opMap[id])
		}
		for _, id := range s.tldID {
			x.tldID = append(x.tldID, tldMap[id])
		}
		for _, id := range s.regID {
			x.regID = append(x.regID, regMap[id])
		}
		x.created = append(x.created, s.created...)
		x.keyDay = append(x.keyDay, s.keyDay...)
		x.dsDay = append(x.dsDay, s.dsDay...)
		x.fullDay = append(x.fullDay, s.fullDay...)
		x.flags = append(x.flags, s.flags...)
	}
	x.finish()
	return x
}
