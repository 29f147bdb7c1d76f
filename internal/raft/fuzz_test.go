package raft

import (
	"testing"

	"mochi/internal/codec"
)

// FuzzWireMessages decodes every Raft wire message type from
// arbitrary bytes: hostile inputs from a compromised or corrupted
// peer must produce decode errors, never panics or runaway
// allocations.
func FuzzWireMessages(f *testing.F) {
	seed := func(sel uint8, m codec.Marshaler) { f.Add(sel, codec.Marshal(m)) }
	seed(0, &requestVoteArgs{Group: "g", Term: 3, Candidate: "sm://a", LastLogIndex: 9, LastLogTerm: 2})
	seed(1, &requestVoteReply{Term: 3, Granted: true})
	seed(2, &appendEntriesArgs{
		Group: "g", Term: 3, Leader: "sm://a", PrevLogIndex: 8, PrevLogTerm: 2,
		Entries:      []LogEntry{{Index: 9, Term: 3, Data: []byte("set x 1")}},
		LeaderCommit: 8,
	})
	seed(3, &appendEntriesReply{Term: 3, Success: true, ConflictIndex: 4})
	seed(4, &installSnapshotArgs{Group: "g", Term: 3, Leader: "sm://a", LastIndex: 9, LastTerm: 2, Peers: []string{"sm://a", "sm://b"}, Data: []byte("snap")})
	seed(5, &applyArgs{Group: "g", Cmd: []byte("set k v")})
	seed(6, &applyReply{OK: true, Result: []byte("ok"), LeaderHint: "sm://a"})
	seed(7, &configChangeArgs{Group: "g", Addr: "sm://c", Remove: true})
	seed(8, &statusReply{OK: true, Role: 2, Term: 3, Leader: "sm://a", Peers: []string{"sm://a"}})
	seed(9, &snapshotEnvelope{Peers: []string{"sm://a"}, FSM: []byte("state")})
	seed(5, &applyArgs{Group: "g", Cmd: []byte("get k")}) // an rpcRead query
	f.Add(uint8(2), []byte{0x01, 0x61, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		switch sel % 10 {
		case 0:
			var v requestVoteArgs
			_ = codec.Unmarshal(data, &v)
		case 1:
			var v requestVoteReply
			_ = codec.Unmarshal(data, &v)
		case 2:
			var v appendEntriesArgs
			_ = codec.Unmarshal(data, &v)
		case 3:
			var v appendEntriesReply
			_ = codec.Unmarshal(data, &v)
		case 4:
			var v installSnapshotArgs
			_ = codec.Unmarshal(data, &v)
		case 5:
			var v applyArgs
			_ = codec.Unmarshal(data, &v)
		case 6:
			var v applyReply
			_ = codec.Unmarshal(data, &v)
		case 7:
			var v configChangeArgs
			_ = codec.Unmarshal(data, &v)
		case 8:
			var v statusReply
			_ = codec.Unmarshal(data, &v)
		case 9:
			var v snapshotEnvelope
			_ = codec.Unmarshal(data, &v)
		}
	})
}
