package fs

import (
	"encoding/binary"
	"fmt"

	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file implements the file-level operations: create, delete, read,
// write/append, and the page lookups used by sendfile and the vnode pager.
// All block mapping goes through the inode's direct/indirect/double-
// indirect pointers, with every metadata block fetched through the memory
// disk (one ephemeral mapping per access).

// blockPtr resolves file block index bi of inode n, optionally allocating
// missing blocks (and indirect blocks) along the way.  It returns the disk
// block number, or 0 when the block does not exist and alloc is false.
func (f *FS) blockPtr(ctx *smp.Context, ino uint32, n *inode, bi int, alloc bool) (uint32, error) {
	if bi < 0 || bi >= MaxFileBlocks {
		return 0, ErrFileTooBig
	}
	// Direct.
	if bi < NDirect {
		if n.Direct[bi] == 0 && alloc {
			blk, err := f.allocBlock(ctx)
			if err != nil {
				return 0, err
			}
			n.Direct[bi] = blk
			if err := f.writeInode(ctx, ino, n); err != nil {
				return 0, err
			}
		}
		return n.Direct[bi], nil
	}
	bi -= NDirect
	// Single indirect.
	if bi < PtrsPerBlock {
		if n.Indirect == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := f.allocZeroedBlock(ctx)
			if err != nil {
				return 0, err
			}
			n.Indirect = blk
			if err := f.writeInode(ctx, ino, n); err != nil {
				return 0, err
			}
		}
		return f.indirectSlot(ctx, n.Indirect, bi, alloc)
	}
	bi -= PtrsPerBlock
	// Double indirect.
	if n.Double == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := f.allocZeroedBlock(ctx)
		if err != nil {
			return 0, err
		}
		n.Double = blk
		if err := f.writeInode(ctx, ino, n); err != nil {
			return 0, err
		}
	}
	l1, err := f.indirectSlot(ctx, n.Double, bi/PtrsPerBlock, alloc)
	if err != nil || l1 == 0 {
		return l1, err
	}
	return f.indirectSlot(ctx, l1, bi%PtrsPerBlock, alloc)
}

// indirectSlot reads slot idx of the indirect block blk, allocating a data
// (or next-level) block into the slot when alloc is true and it is empty.
// An allocated slot target is zero-filled when it will serve as another
// indirect block; data blocks are left as-is (file reads past what was
// written return whatever the block holds, as with a real FS without
// zero-fill guarantees for this simulator's purposes).
func (f *FS) indirectSlot(ctx *smp.Context, blk uint32, idx int, alloc bool) (uint32, error) {
	buf := f.getBlockBuf()
	defer f.putBlockBuf(buf)
	if err := f.readBlock(ctx, int(blk), buf); err != nil {
		return 0, err
	}
	ptr := binary.LittleEndian.Uint32(buf[4*idx:])
	if ptr == 0 && alloc {
		nb, err := f.allocBlock(ctx)
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(buf[4*idx:], nb)
		if err := f.writeBlock(ctx, int(blk), buf); err != nil {
			return 0, err
		}
		ptr = nb
	}
	return ptr, nil
}

// allocZeroedBlock allocates a block and writes zeros to it, as required
// for fresh indirect blocks.
func (f *FS) allocZeroedBlock(ctx *smp.Context) (uint32, error) {
	blk, err := f.allocBlock(ctx)
	if err != nil {
		return 0, err
	}
	zero := f.getBlockBuf()
	defer f.putBlockBuf(zero)
	for i := range zero {
		zero[i] = 0
	}
	if err := f.writeBlock(ctx, int(blk), zero); err != nil {
		return 0, err
	}
	return blk, nil
}

// readRange reads len(dst) bytes at off from the file described by n.
func (f *FS) readRange(ctx *smp.Context, n *inode, off int64, dst []byte) error {
	if off < 0 || off+int64(len(dst)) > int64(n.Size) {
		return fmt.Errorf("fs: read [%d,%d) beyond size %d", off, off+int64(len(dst)), n.Size)
	}
	for len(dst) > 0 {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		c := min(BlockSize-bo, len(dst))
		blk, err := f.blockPtr(ctx, 0, n, bi, false)
		if err != nil {
			return err
		}
		if blk == 0 {
			return fmt.Errorf("fs: hole at file block %d", bi)
		}
		if err := f.d.ReadAt(ctx, dst[:c], int64(blk)*BlockSize+int64(bo)); err != nil {
			return err
		}
		dst = dst[c:]
		off += int64(c)
	}
	return nil
}

// writeRange writes src at off into inode ino (in-place and/or extending),
// allocating blocks as needed and updating the size.
func (f *FS) writeRange(ctx *smp.Context, ino uint32, n *inode, off int64, src []byte) error {
	end := off + int64(len(src))
	for len(src) > 0 {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		c := min(BlockSize-bo, len(src))
		blk, err := f.blockPtr(ctx, ino, n, bi, true)
		if err != nil {
			return err
		}
		if err := f.d.WriteAt(ctx, src[:c], int64(blk)*BlockSize+int64(bo)); err != nil {
			return err
		}
		src = src[c:]
		off += int64(c)
	}
	if uint64(end) > n.Size {
		n.Size = uint64(end)
		return f.writeInode(ctx, ino, n)
	}
	return nil
}

// Create makes a new empty file.
func (f *FS) Create(ctx *smp.Context, name string) error {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	if len(name) == 0 || len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.dcache[name]; ok {
		return ErrExists
	}
	ino, err := f.allocInode()
	if err != nil {
		return err
	}
	if err := f.writeInode(ctx, ino, &inode{}); err != nil {
		f.freeInode(ino)
		return err
	}
	// Find a free directory slot (or append one) and write the entry.
	var root inode
	if err := f.readInode(ctx, 0, &root); err != nil {
		return err
	}
	// Reuse a slot vacated by a deletion, else append a new one.
	slot := f.dirEnts
	if n := len(f.freeSlots); n > 0 {
		slot = f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
	}
	ent := make([]byte, DirEntrySize)
	binary.LittleEndian.PutUint32(ent[0:], ino)
	copy(ent[4:], name)
	if err := f.writeRange(ctx, 0, &root, int64(slot)*DirEntrySize, ent); err != nil {
		f.freeInode(ino)
		return err
	}
	if slot == f.dirEnts {
		f.dirEnts++
	}
	f.dcache[name] = dirSlot{ino: ino, slot: slot}
	return nil
}

// Delete removes a file and frees its blocks and inode.
func (f *FS) Delete(ctx *smp.Context, name string) error {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return err
	}
	if err := f.truncateLocked(ctx, ds.ino, &n); err != nil {
		return err
	}
	// Clear the directory slot on disk.
	var root inode
	if err := f.readInode(ctx, 0, &root); err != nil {
		return err
	}
	ent := make([]byte, DirEntrySize)
	if err := f.writeRange(ctx, 0, &root, int64(ds.slot)*DirEntrySize, ent); err != nil {
		return err
	}
	f.freeInode(ds.ino)
	delete(f.dcache, name)
	f.freeSlots = append(f.freeSlots, ds.slot)
	return nil
}

// truncateLocked frees every data and indirect block of an inode and
// zeroes it on disk.
func (f *FS) truncateLocked(ctx *smp.Context, ino uint32, n *inode) error {
	for i := 0; i < NDirect; i++ {
		if n.Direct[i] != 0 {
			if err := f.freeBlock(ctx, n.Direct[i]); err != nil {
				return err
			}
		}
	}
	if n.Indirect != 0 {
		if err := f.freeIndirect(ctx, n.Indirect, 1); err != nil {
			return err
		}
	}
	if n.Double != 0 {
		if err := f.freeIndirect(ctx, n.Double, 2); err != nil {
			return err
		}
	}
	return f.writeInode(ctx, ino, &inode{})
}

// freeIndirect frees an indirect block of the given depth and everything
// beneath it.
func (f *FS) freeIndirect(ctx *smp.Context, blk uint32, depth int) error {
	buf := make([]byte, BlockSize)
	if err := f.readBlock(ctx, int(blk), buf); err != nil {
		return err
	}
	for i := 0; i < PtrsPerBlock; i++ {
		ptr := binary.LittleEndian.Uint32(buf[4*i:])
		if ptr == 0 {
			continue
		}
		if depth > 1 {
			if err := f.freeIndirect(ctx, ptr, depth-1); err != nil {
				return err
			}
		} else if err := f.freeBlock(ctx, ptr); err != nil {
			return err
		}
	}
	return f.freeBlock(ctx, blk)
}

// WriteFile replaces (or creates) a file with the given contents.
func (f *FS) WriteFile(ctx *smp.Context, name string, data []byte) error {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	f.mu.Lock()
	ds, ok := f.dcache[name]
	f.mu.Unlock()
	if !ok {
		if err := f.Create(ctx, name); err != nil {
			return err
		}
		f.mu.Lock()
		ds = f.dcache[name]
		f.mu.Unlock()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return err
	}
	if n.Size > 0 {
		if err := f.truncateLocked(ctx, ds.ino, &n); err != nil {
			return err
		}
		n = inode{}
	}
	if len(data) == 0 {
		return nil
	}
	return f.writeRange(ctx, ds.ino, &n, 0, data)
}

// Append extends a file with data.
func (f *FS) Append(ctx *smp.Context, name string, data []byte) error {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return err
	}
	return f.writeRange(ctx, ds.ino, &n, int64(n.Size), data)
}

// Size returns a file's length.
func (f *FS) Size(ctx *smp.Context, name string) (int64, error) {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return 0, ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return 0, err
	}
	return int64(n.Size), nil
}

// ReadAt fills dst from the file at off.
func (f *FS) ReadAt(ctx *smp.Context, name string, off int64, dst []byte) error {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return err
	}
	return f.readRange(ctx, &n, off, dst)
}

// ReadFull streams the whole file in unit-byte reads (PostMark reads files
// with a 512-byte block size), returning the total bytes read.  It avoids
// materializing the file: the same scratch buffer is reused.
func (f *FS) ReadFull(ctx *smp.Context, name string, unit int) (int64, error) {
	ctx.Charge(ctx.Cost().VFSOpFixed)
	if unit <= 0 {
		unit = BlockSize
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return 0, ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return 0, err
	}
	var buf []byte
	if unit <= BlockSize {
		buf = f.getBlockBuf()
		defer f.putBlockBuf(buf)
	} else {
		buf = make([]byte, unit)
	}
	var off int64
	for off < int64(n.Size) {
		c := min(int64(unit), int64(n.Size)-off)
		if err := f.readRange(ctx, &n, off, buf[:c]); err != nil {
			return off, err
		}
		off += c
	}
	return off, nil
}

// FilePage resolves the physical page backing file page index pi — the
// sendfile path: the file's block is the disk's page, which the caller
// then maps with a shared sf_buf.  The metadata walk performs real disk
// reads; the data block itself is not read (sendfile maps it instead).
func (f *FS) FilePage(ctx *smp.Context, name string, pi int) (*vm.Page, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return nil, ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return nil, err
	}
	if int64(pi)*BlockSize >= int64(n.Size) {
		return nil, fmt.Errorf("fs: page %d beyond EOF of %q", pi, name)
	}
	blk, err := f.blockPtr(ctx, ds.ino, &n, pi, false)
	if err != nil {
		return nil, err
	}
	if blk == 0 {
		return nil, fmt.Errorf("fs: hole at page %d of %q", pi, name)
	}
	return f.d.PageAt(int64(blk) * BlockSize)
}

// BlockOf returns the disk block number backing file page pi, for the
// vnode pager.
func (f *FS) BlockOf(ctx *smp.Context, name string, pi int) (uint32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ds, ok := f.dcache[name]
	if !ok {
		return 0, ErrNotFound
	}
	var n inode
	if err := f.readInode(ctx, ds.ino, &n); err != nil {
		return 0, err
	}
	return f.blockPtr(ctx, ds.ino, &n, pi, false)
}

// Fsck verifies filesystem invariants: every live block is referenced by
// exactly one file (or the directory), every referenced block is marked
// allocated, and free-count accounting matches the bitmap.  Tests call it
// after random operation sequences.
//
// A block counts as referenced when an inode's pointer tree reaches it,
// whether or not it lies below the file's size: a write cut short by
// ErrNoSpace leaves the blocks it allocated past the size in the tree,
// where the next write past the size reuses them and truncation frees
// them.
func (f *FS) Fsck(ctx *smp.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	refs := make(map[uint32]int)
	buf := make([]byte, BlockSize)
	// tree counts an indirect block of the given depth and everything
	// beneath it.
	var tree func(blk uint32, depth int) error
	tree = func(blk uint32, depth int) error {
		refs[blk]++
		if err := f.readBlock(ctx, int(blk), buf); err != nil {
			return err
		}
		var ptrs []uint32
		for i := 0; i < PtrsPerBlock; i++ {
			if p := binary.LittleEndian.Uint32(buf[4*i:]); p != 0 {
				ptrs = append(ptrs, p)
			}
		}
		for _, p := range ptrs {
			if depth == 1 {
				refs[p]++
			} else if err := tree(p, depth-1); err != nil {
				return err
			}
		}
		return nil
	}
	walk := func(ino uint32) error {
		var n inode
		if err := f.readInode(ctx, ino, &n); err != nil {
			return err
		}
		blocks := int((n.Size + BlockSize - 1) / BlockSize)
		for bi := 0; bi < blocks; bi++ {
			blk, err := f.blockPtr(ctx, ino, &n, bi, false)
			if err != nil {
				return err
			}
			if blk == 0 {
				return fmt.Errorf("fs: fsck: inode %d has a hole at %d", ino, bi)
			}
		}
		for _, d := range n.Direct {
			if d != 0 {
				refs[d]++
			}
		}
		if n.Indirect != 0 {
			if err := tree(n.Indirect, 1); err != nil {
				return err
			}
		}
		if n.Double != 0 {
			return tree(n.Double, 2)
		}
		return nil
	}
	if err := walk(0); err != nil {
		return err
	}
	for name, ds := range f.dcache {
		if err := walk(ds.ino); err != nil {
			return fmt.Errorf("%w (file %q)", err, name)
		}
	}
	for blk, c := range refs {
		if c != 1 {
			return fmt.Errorf("fs: fsck: block %d referenced %d times", blk, c)
		}
		if !f.blockUsed(int(blk)) {
			return fmt.Errorf("fs: fsck: referenced block %d is marked free", blk)
		}
	}
	free := 0
	for blk := f.dataStart; blk < f.totalBlocks; blk++ {
		if !f.blockUsed(blk) {
			free++
		} else if refs[uint32(blk)] == 0 {
			return fmt.Errorf("fs: fsck: block %d allocated but unreferenced", blk)
		}
	}
	if free != f.freeBlocks {
		return fmt.Errorf("fs: fsck: free count %d, bitmap says %d", f.freeBlocks, free)
	}
	return nil
}
