package ctrlplane

import "testing"

// echo is one member's report as the mint clock sees it: the highest
// interval the member has observed and the (epoch, seq) of the grant it
// holds.
type echo struct{ iv, epoch, seq uint64 }

// TestMintClock holds the minting rule to its contract over tables of
// report echoes — the behaviour only the multi-second restart drills
// (TestCoordinatorClockRestartRehydration, pscluster
// -restart-global-step) otherwise reach.
func TestMintClock(t *testing.T) {
	for _, tc := range []struct {
		name    string
		epoch   uint64
		members int
		// rounds are successive scrape rounds of a fresh clock; the
		// members that did not answer a round are simply absent.
		rounds [][]echo
		// wantOpen is the round (index) settle reports rehydration in,
		// -1 for never; wantIv is Iv() after each round.
		wantOpen int
		wantIv   []uint64
		// wantSeq/wantMintIv are the first mint's pair once open.
		wantSeq, wantMintIv uint64
	}{
		{
			name:  "a minority never opens minting, but iv still tracks it",
			epoch: 1, members: 5,
			rounds: [][]echo{
				{{iv: 7, epoch: 1, seq: 7}, {iv: 7, epoch: 1, seq: 7}},
				{{iv: 8, epoch: 1, seq: 8}},
				{},
				{{iv: 9, epoch: 1, seq: 9}, {iv: 9, epoch: 1, seq: 9}},
			},
			wantOpen: -1,
			wantIv:   []uint64{7, 8, 8, 9},
		},
		{
			name:  "the first majority adopts max iv and the max same-epoch seq only",
			epoch: 2, members: 5,
			rounds: [][]echo{
				{{iv: 7, epoch: 2, seq: 5}, {iv: 9, epoch: 3, seq: 40}, {iv: 4, epoch: 1, seq: 99}},
			},
			wantOpen: 0,
			wantIv:   []uint64{9},
			wantSeq:  6, wantMintIv: 10,
		},
		{
			name:  "echoes heard under a minority count once the majority arrives",
			epoch: 1, members: 4,
			rounds: [][]echo{
				{{iv: 12, epoch: 1, seq: 12}},
				{{iv: 3, epoch: 1, seq: 3}, {iv: 3, epoch: 1, seq: 3}, {iv: 2, epoch: 1, seq: 2}},
			},
			wantOpen: 1,
			wantIv:   []uint64{12, 12},
			wantSeq:  13, wantMintIv: 13,
		},
		{
			name:  "a fresh fleet opens at zero",
			epoch: 1, members: 3,
			rounds:   [][]echo{{{}, {}}},
			wantOpen: 0,
			wantIv:   []uint64{0},
			wantSeq:  1, wantMintIv: 1,
		},
		{
			name:  "a standby's iv follows the leader's mints before and after rehydration",
			epoch: 1, members: 2,
			rounds: [][]echo{
				{{iv: 3, epoch: 2, seq: 3}},
				{{iv: 4, epoch: 2, seq: 4}, {iv: 4, epoch: 2, seq: 4}},
				{{iv: 5, epoch: 2, seq: 5}, {iv: 5, epoch: 2, seq: 5}},
				{{iv: 6, epoch: 2, seq: 6}},
			},
			wantOpen: 1,
			wantIv:   []uint64{3, 4, 5, 6},
			// Promoted under its own epoch the leader's seqs do not
			// count, its intervals do.
			wantSeq: 1, wantMintIv: 7,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m mintClock
			m.epoch.Store(tc.epoch)
			opened := -1
			var maxEcho uint64
			for r, round := range tc.rounds {
				before := m.Iv()
				for _, e := range round {
					var wantLag uint64
					if before > e.iv {
						wantLag = before - e.iv
					}
					if lag := m.harvest(tc.epoch, e.iv, e.epoch, e.seq); lag != wantLag {
						t.Errorf("round %d: echo iv=%d lags %d, want %d", r, e.iv, lag, wantLag)
					}
					maxEcho = max(maxEcho, e.iv)
				}
				if m.settle(len(round), tc.members) {
					if opened >= 0 {
						t.Errorf("round %d: rehydrated twice (first in round %d)", r, opened)
					}
					opened = r
				}
				if m.rehydrated != (opened >= 0) {
					t.Errorf("round %d: rehydrated=%v with settle reporting round %d", r, m.rehydrated, opened)
				}
				if got := m.Iv(); got != tc.wantIv[r] {
					t.Errorf("round %d: iv=%d, want %d", r, got, tc.wantIv[r])
				}
			}
			if opened != tc.wantOpen {
				t.Fatalf("minting opened in round %d, want %d", opened, tc.wantOpen)
			}
			if opened < 0 {
				return
			}
			seq, iv := m.mint()
			if seq != tc.wantSeq || iv != tc.wantMintIv {
				t.Errorf("first mint (seq %d, iv %d), want (%d, %d)", seq, iv, tc.wantSeq, tc.wantMintIv)
			}
			if iv <= maxEcho {
				t.Errorf("minted iv %d not above the highest echo %d", iv, maxEcho)
			}
			if seq2, iv2 := m.mint(); seq2 != seq+1 || iv2 != iv+1 {
				t.Errorf("second mint (seq %d, iv %d), want (%d, %d)", seq2, iv2, seq+1, iv+1)
			}
		})
	}

	// An epoch move is reported once, never rewinds the interval
	// counter, and a higher observed epoch deposes.
	t.Run("setEpoch keeps iv; a higher response epoch deposes", func(t *testing.T) {
		var m mintClock
		m.epoch.Store(1)
		m.harvest(1, 5, 1, 5)
		m.settle(1, 1)
		m.mint()
		if !m.setEpoch(3) || m.setEpoch(3) {
			t.Error("setEpoch must report a change exactly when the epoch moves")
		}
		if m.Epoch() != 3 || m.Iv() != 6 {
			t.Errorf("after setEpoch(3): epoch=%d iv=%d, want 3 and 6", m.Epoch(), m.Iv())
		}
		if _, iv := m.mint(); iv != 7 {
			t.Errorf("first mint of epoch 3 is iv %d, want 7", iv)
		}
		m.noteEpoch(2)
		m.noteEpoch(3)
		if m.deposed(3) {
			t.Error("deposed by an epoch not above its own")
		}
		m.noteEpoch(4)
		m.noteEpoch(2)
		if m.PeakEpoch() != 4 || !m.deposed(3) {
			t.Errorf("peak epoch %d deposed=%v, want 4 and true", m.PeakEpoch(), m.deposed(3))
		}
	})
}
