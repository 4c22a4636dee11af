package storage

import "blend/internal/xash"

// BlockSize is the most entries one PostingCursor.Next call gathers.
const BlockSize = 256

// PostingBlock is one caller-owned block of posting entries in parallel
// columns: entry i of the block is (Pos[i], TID[i], CID[i], RID[i]) for
// i < N. Super is filled only when the caller asks for super keys. A block
// is plain fixed-size arrays, so a caller keeps one on its stack or in
// pooled scratch and reuses it for every cursor it drains.
type PostingBlock struct {
	N                  int
	Pos, TID, CID, RID [BlockSize]int32
	Super              [BlockSize]xash.Key
}

// PostingCursor walks the live postings of one cell value, one block at a
// time. ShardedStore.Postings and ShardPostings return it by value and it
// holds no buffers, so draining it allocates nothing. It skips tombstoned
// tables and reports global entry positions and table ids.
//
//	cur := s.Postings(v)
//	for cur.Next(&blk, false) {
//		for i := range blk.N { … blk.TID[i] … }
//	}
type PostingCursor struct {
	s         *ShardedStore
	value     string
	next, end int // the shards still to open: [next, end)

	st   *Store  // the shard being gathered
	list []int32 // its postings not yet gathered
	gtid []int32 // its local -> global table ids
	base int32   // its global entry offset, added to its positions
}

// Next fills b with the next block of live entries, including their row
// super keys when super is set, and reports whether the block holds any;
// false means the cursor is exhausted. A block never spans two shards, so
// it may hold fewer than BlockSize entries before the end.
func (c *PostingCursor) Next(b *PostingBlock, super bool) bool {
	for {
		for len(c.list) == 0 {
			if c.next >= c.end {
				b.N = 0
				return false
			}
			i := c.next
			c.next++
			c.st = c.s.shards[i]
			c.list = c.st.postingList(c.value)
			c.gtid = c.s.globalTID[i]
			c.base = c.s.base[i]
		}
		st, list := c.st, c.list
		dead, anyDead := c.s.dead, c.s.numDead > 0
		n, i := 0, 0
		for ; i < len(list) && n < BlockSize; i++ {
			p := list[i]
			g := c.gtid[st.tableIDs[p]]
			if anyDead && dead[g] {
				continue
			}
			b.Pos[n], b.TID[n], b.CID[n], b.RID[n] = p+c.base, g, st.columnIDs[p], st.rowIDs[p]
			if super {
				b.Super[n] = xash.Key{Lo: st.superLo[p], Hi: st.superHi[p]}
			}
			n++
		}
		c.list = list[i:]
		if n > 0 {
			b.N = n
			return true
		}
	}
}
