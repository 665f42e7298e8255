package fs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestBitmapBlockTailZero: the on-disk bitmap blocks hold nothing past the
// last block's bit.  Each rig churns writes and deletes, then reads the raw
// bitmap blocks through the memory disk.
func TestBitmapBlockTailZero(t *testing.T) {
	for _, blocks := range []int{256, 300} {
		t.Run(fmt.Sprint(blocks), func(t *testing.T) {
			r := newRig(t, blocks, 32)
			for i := 0; i < 4; i++ {
				if err := r.f.WriteFile(r.ctx, fmt.Sprint("f", i), randBytes(int64(i), (i+1)*BlockSize+100)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.f.Delete(r.ctx, "f1"); err != nil {
				t.Fatal(err)
			}
			total := r.f.totalBlocks
			buf := make([]byte, BlockSize)
			for i := 0; i < r.f.bitmapBlocks; i++ {
				if err := r.d.ReadAt(r.ctx, buf, int64(1+i)*BlockSize); err != nil {
					t.Fatal(err)
				}
				for j, b := range buf {
					for bit := 0; bit < 8; bit++ {
						blk := (i*BlockSize+j)*8 + bit
						if blk >= total && b&(1<<bit) != 0 {
							t.Fatalf("bitmap block %d byte %d: bit for block %d past the last (%d) is set (byte %#x)",
								i, j, blk, total-1, b)
						}
					}
				}
			}
		})
	}
}

// refLowestFreeBlock is the linear block scan the low-water word search
// replaced: the lowest unmarked block in [dataStart, len(used)).
func refLowestFreeBlock(used []bool, dataStart int) (int, bool) {
	for blk := dataStart; blk < len(used); blk++ {
		if !used[blk] {
			return blk, true
		}
	}
	return 0, false
}

// refLowestFreeInode is the linear inode scan the low-water index
// replaced: the lowest free inode past the root directory.
func refLowestFreeInode(f *FS) (int, bool) {
	for i := 1; i < f.maxInodes; i++ {
		if !f.inodeUsed[i] {
			return i, true
		}
	}
	return 0, false
}

// usedBlocks snapshots the allocation bitmap as a per-block slice.
func usedBlocks(f *FS) []bool {
	used := make([]bool, f.totalBlocks)
	for blk := range used {
		used[blk] = f.bitmap[blk/8]&(1<<(blk%8)) != 0
	}
	return used
}

// TestAllocMatchesLinearScan drives seeded create, append and delete churn
// into a full disk and a full inode table, with Mount round trips, and
// checks after every operation that the blocks and inode it allocated
// are exactly the ones the linear scans pick: an operation that only
// allocates takes the lowest free blocks, lowest first, and a create
// takes the lowest free inode.  Deletes must free blocks and inodes below
// the low-water hints, or the hints' lowering goes untested.
func TestAllocMatchesLinearScan(t *testing.T) {
	r := newRig(t, 160, 48)
	f := r.f
	rng := rand.New(rand.NewSource(5))
	live := []string{}
	next := 0
	var noSpace, noInodes, belowBlockHint, belowInodeHint, mounts int

	for op := 0; op < 1500; op++ {
		before := usedBlocks(f)
		wantInode, inodeFree := refLowestFreeInode(f)
		inodesBefore := append([]bool(nil), f.inodeUsed...)
		blockHint, inodeHint := f.blockHint, f.inodeHint

		var err error
		deleted := ""
		// The mix drifts: creates and appends dominate until the disk
		// and the inode table fill, then deletes take over for a while.
		phase := (op / 250) % 2
		switch c := rng.Intn(10); {
		case len(live) > 0 && (c < 1 || phase == 1 && c < 7):
			i := rng.Intn(len(live))
			deleted = live[i]
			err = f.Delete(r.ctx, deleted)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case len(live) > 0 && c < 4:
			err = f.Append(r.ctx, live[rng.Intn(len(live))], randBytes(int64(op), rng.Intn(6*BlockSize)+1))
		default:
			name := fmt.Sprint("n", next)
			next++
			err = f.WriteFile(r.ctx, name, randBytes(int64(op), rng.Intn(2*BlockSize)))
			if err == nil {
				live = append(live, name)
			} else if _, ok := f.dcache[name]; ok {
				// Created, then the data write ran out of space.
				live = append(live, name)
			}
		}
		switch {
		case errors.Is(err, ErrNoSpace):
			noSpace++
		case errors.Is(err, ErrNoInodes):
			noInodes++
		case err != nil:
			t.Fatalf("op %d: %v", op, err)
		}

		after := usedBlocks(f)
		var added, removed []int
		for blk := range after {
			switch {
			case after[blk] && !before[blk]:
				added = append(added, blk)
			case !after[blk] && before[blk]:
				removed = append(removed, blk)
			}
		}
		if deleted != "" {
			if len(added) != 0 {
				t.Fatalf("op %d: delete allocated blocks %v", op, added)
			}
			for _, blk := range removed {
				if blk/64 < blockHint {
					belowBlockHint++
				}
			}
		} else {
			if len(removed) != 0 {
				t.Fatalf("op %d: allocation freed blocks %v", op, removed)
			}
			// The linear scan, repeated on the pre-operation bitmap,
			// must pick exactly the added blocks.
			for _, blk := range added {
				want, ok := refLowestFreeBlock(before, f.dataStart)
				if !ok || want != blk {
					t.Fatalf("op %d: allocated block %d, linear scan picks %d (ok=%v)", op, blk, want, ok)
				}
				before[blk] = true
			}
		}

		var newInodes, freedInodes []int
		for i := range f.inodeUsed {
			switch {
			case f.inodeUsed[i] && !inodesBefore[i]:
				newInodes = append(newInodes, i)
			case !f.inodeUsed[i] && inodesBefore[i]:
				freedInodes = append(freedInodes, i)
			}
		}
		switch {
		case len(newInodes) > 1:
			t.Fatalf("op %d: one operation took inodes %v", op, newInodes)
		case len(newInodes) == 1 && (!inodeFree || newInodes[0] != wantInode):
			t.Fatalf("op %d: allocated inode %d, linear scan picks %d (ok=%v)", op, newInodes[0], wantInode, inodeFree)
		case errors.Is(err, ErrNoInodes) && inodeFree:
			t.Fatalf("op %d: ErrNoInodes with inode %d free", op, wantInode)
		}
		for _, i := range freedInodes {
			if i < inodeHint {
				belowInodeHint++
			}
		}
		if _, ok := refLowestFreeBlock(after, f.dataStart); errors.Is(err, ErrNoSpace) && ok {
			t.Fatalf("op %d: ErrNoSpace with a block free", op)
		}

		if err := f.Fsck(r.ctx); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%100 == 99 {
			m, err := Mount(r.ctx, r.k, r.d)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.bitmap) != string(f.bitmap) {
				t.Fatalf("op %d: mounted bitmap image differs", op)
			}
			for i := range f.inodeUsed {
				if m.inodeUsed[i] != f.inodeUsed[i] {
					t.Fatalf("op %d: mounted inode %d live=%v, want %v", op, i, m.inodeUsed[i], f.inodeUsed[i])
				}
			}
			if m.freeBlocks != f.freeBlocks {
				t.Fatalf("op %d: mounted free count %d, want %d", op, m.freeBlocks, f.freeBlocks)
			}
			// Carry on through the mounted instance: its hints start
			// from scratch.
			f = m
			mounts++
		}
	}
	t.Logf("ErrNoSpace %d, ErrNoInodes %d, blocks freed below the hint %d, inodes freed below the hint %d, mounts %d",
		noSpace, noInodes, belowBlockHint, belowInodeHint, mounts)
	if noSpace == 0 || noInodes == 0 || belowBlockHint == 0 || belowInodeHint == 0 {
		t.Fatal("churn did not reach a full disk, a full inode table and frees below both hints")
	}
}
