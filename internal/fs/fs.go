// Package fs implements a small block filesystem on a memory disk.  It is
// the substrate for the PostMark experiments (Figures 8-10) and the web
// server's document store: every data and metadata block access goes
// through the memory disk's read/write path, which creates and destroys an
// ephemeral mapping per block — the traffic pattern whose cost the paper
// measures.
//
// The design is a deliberately classical Unix layout:
//
//	block 0:            superblock
//	blocks 1..b:        block allocation bitmap
//	blocks b+1..b+i:    inode table (64-byte inodes, 64 per block)
//	remaining blocks:   data
//
// Inode 0 is the root directory, a flat file of 64-byte entries.  A
// directory name cache (the dcache) is kept in memory and rebuilt from
// disk on mount; all other metadata is read and written through the disk.
package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Geometry constants.
const (
	// BlockSize equals the page size so a file block corresponds to one
	// disk page, which is what lets sendfile map file pages directly.
	BlockSize = vm.PageSize
	// InodeSize is the on-disk inode footprint.
	InodeSize = 64
	// InodesPerBlock derives from the two sizes.
	InodesPerBlock = BlockSize / InodeSize
	// NDirect is the number of direct block pointers per inode.
	NDirect = 12
	// PtrsPerBlock is the fan-out of an indirect block.
	PtrsPerBlock = BlockSize / 4
	// DirEntrySize is the on-disk directory entry footprint.
	DirEntrySize = 64
	// MaxNameLen is the longest allowed file name.
	MaxNameLen = DirEntrySize - 5 // 4-byte inode number + NUL guarantee
	// Magic identifies a formatted volume.
	Magic = 0x5F5B0F55 // "SFBuF FS"
)

// MaxFileBlocks is the largest file the inode geometry can address.
const MaxFileBlocks = NDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// Errors.
var (
	ErrNotFound    = errors.New("fs: file not found")
	ErrExists      = errors.New("fs: file already exists")
	ErrNoSpace     = errors.New("fs: out of data blocks")
	ErrNoInodes    = errors.New("fs: out of inodes")
	ErrNameTooLong = errors.New("fs: name too long")
	ErrBadVolume   = errors.New("fs: bad superblock")
	ErrFileTooBig  = errors.New("fs: file exceeds maximum size")
)

// inode is the in-memory form of an on-disk inode.
type inode struct {
	Size     uint64
	Direct   [NDirect]uint32
	Indirect uint32
	Double   uint32
}

func (ino *inode) encode(b []byte) {
	binary.LittleEndian.PutUint64(b[0:], ino.Size)
	for i, d := range ino.Direct {
		binary.LittleEndian.PutUint32(b[8+4*i:], d)
	}
	binary.LittleEndian.PutUint32(b[8+4*NDirect:], ino.Indirect)
	binary.LittleEndian.PutUint32(b[12+4*NDirect:], ino.Double)
}

func (ino *inode) decode(b []byte) {
	ino.Size = binary.LittleEndian.Uint64(b[0:])
	for i := range ino.Direct {
		ino.Direct[i] = binary.LittleEndian.Uint32(b[8+4*i:])
	}
	ino.Indirect = binary.LittleEndian.Uint32(b[8+4*NDirect:])
	ino.Double = binary.LittleEndian.Uint32(b[12+4*NDirect:])
}

// dirSlot records where a name lives in the directory file.
type dirSlot struct {
	ino  uint32
	slot int // entry index within the directory file
}

// FS is a mounted filesystem.
type FS struct {
	k *kernel.Kernel
	d *memdisk.Disk

	mu sync.Mutex

	totalBlocks  int
	bitmapBlocks int
	inodeBlocks  int
	dataStart    int
	maxInodes    int

	// bitmap is the allocation bitmap exactly as it lies on disk: bit
	// blk%8 of byte blk/8 marks block blk allocated, and the image is
	// padded with zeros to whole bitmap blocks.  A mutation writes its
	// bitmap block through as it stands.
	bitmap     []byte
	freeBlocks int
	// blockHint is a low-water 64-bit word index into bitmap: no word
	// below it holds a free data block.  Allocation scans from it; a free
	// lowers it.
	blockHint int

	// inodeUsed mirrors inode liveness (an inode is live when it appears
	// in the directory; inode 0 is always the root directory).
	inodeUsed []bool
	// inodeHint is a low-water index into inodeUsed: every inode in
	// [1, inodeHint) is live.  Allocation scans from it; a free lowers it.
	inodeHint int

	// dcache maps names to directory slots; rebuilt from disk on mount.
	dcache  map[string]dirSlot
	dirEnts int // directory file entry count (including free slots)
	// freeSlots stacks directory slots vacated by deletions for O(1)
	// reuse by the next creation.
	freeSlots []int

	// bufPool recycles block-sized scratch buffers for metadata I/O;
	// protected by mu like everything else that uses them.
	bufPool [][]byte
}

// Mkfs formats the disk and returns the mounted filesystem.  maxInodes
// bounds the file count (rounded up to a whole inode block).
func Mkfs(ctx *smp.Context, k *kernel.Kernel, d *memdisk.Disk, maxInodes int) (*FS, error) {
	if maxInodes <= 0 {
		return nil, fmt.Errorf("fs: invalid inode count %d", maxInodes)
	}
	total := int(d.Size() / BlockSize)
	inodeBlocks := (maxInodes + InodesPerBlock - 1) / InodesPerBlock
	bitmapBlocks := (total + BlockSize*8 - 1) / (BlockSize * 8)
	dataStart := 1 + bitmapBlocks + inodeBlocks
	if dataStart+8 > total {
		return nil, fmt.Errorf("fs: disk too small: %d blocks, %d of metadata", total, dataStart)
	}
	f := &FS{
		k:            k,
		d:            d,
		totalBlocks:  total,
		bitmapBlocks: bitmapBlocks,
		inodeBlocks:  inodeBlocks,
		dataStart:    dataStart,
		maxInodes:    inodeBlocks * InodesPerBlock,
		bitmap:       make([]byte, bitmapBlocks*BlockSize),
		blockHint:    dataStart / 64,
		inodeUsed:    make([]bool, inodeBlocks*InodesPerBlock),
		inodeHint:    1,
		dcache:       make(map[string]dirSlot),
	}
	// Mark the metadata region allocated.
	for blk := 0; blk < dataStart; blk++ {
		f.bitmap[blk/8] |= 1 << (blk % 8)
	}
	f.freeBlocks = total - dataStart

	// Write the superblock.
	sb := make([]byte, BlockSize)
	binary.LittleEndian.PutUint32(sb[0:], Magic)
	binary.LittleEndian.PutUint32(sb[4:], uint32(total))
	binary.LittleEndian.PutUint32(sb[8:], uint32(bitmapBlocks))
	binary.LittleEndian.PutUint32(sb[12:], uint32(inodeBlocks))
	if err := f.writeBlock(ctx, 0, sb); err != nil {
		return nil, err
	}
	// Write the bitmap.
	if err := f.flushBitmapAll(ctx); err != nil {
		return nil, err
	}
	// Zero the inode table.
	zero := make([]byte, BlockSize)
	for i := 0; i < inodeBlocks; i++ {
		if err := f.writeBlock(ctx, 1+bitmapBlocks+i, zero); err != nil {
			return nil, err
		}
	}
	// Inode 0 is the (initially empty) root directory.
	f.inodeUsed[0] = true
	if err := f.writeInode(ctx, 0, &inode{}); err != nil {
		return nil, err
	}
	return f, nil
}

// Mount reads the superblock, bitmap and root directory of a previously
// formatted disk and returns the filesystem.
func Mount(ctx *smp.Context, k *kernel.Kernel, d *memdisk.Disk) (*FS, error) {
	sb := make([]byte, BlockSize)
	f := &FS{k: k, d: d}
	if err := f.readBlock(ctx, 0, sb); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sb[0:]) != Magic {
		return nil, ErrBadVolume
	}
	f.totalBlocks = int(binary.LittleEndian.Uint32(sb[4:]))
	f.bitmapBlocks = int(binary.LittleEndian.Uint32(sb[8:]))
	f.inodeBlocks = int(binary.LittleEndian.Uint32(sb[12:]))
	f.dataStart = 1 + f.bitmapBlocks + f.inodeBlocks
	f.maxInodes = f.inodeBlocks * InodesPerBlock
	f.bitmap = make([]byte, f.bitmapBlocks*BlockSize)
	f.blockHint = f.dataStart / 64
	f.inodeUsed = make([]bool, f.maxInodes)
	f.inodeHint = 1
	f.dcache = make(map[string]dirSlot)

	// Read the bitmap image, then clear its padding past the last block
	// so no stray byte there can read as an allocated block.
	for i := 0; i < f.bitmapBlocks; i++ {
		if err := f.readBlock(ctx, 1+i, f.bitmap[i*BlockSize:]); err != nil {
			return nil, err
		}
	}
	if r := f.totalBlocks % 8; r != 0 {
		f.bitmap[f.totalBlocks/8] &= 1<<r - 1
	}
	clear(f.bitmap[(f.totalBlocks+7)/8:])
	f.freeBlocks = 0
	for blk := f.dataStart; blk < f.totalBlocks; blk++ {
		if !f.blockUsed(blk) {
			f.freeBlocks++
		}
	}

	// Rebuild the dcache from the root directory.
	f.inodeUsed[0] = true
	var root inode
	if err := f.readInode(ctx, 0, &root); err != nil {
		return nil, err
	}
	f.dirEnts = int(root.Size) / DirEntrySize
	ent := make([]byte, DirEntrySize)
	for slot := 0; slot < f.dirEnts; slot++ {
		if err := f.readRange(ctx, &root, int64(slot)*DirEntrySize, ent); err != nil {
			return nil, err
		}
		ino := binary.LittleEndian.Uint32(ent[0:])
		if ino == 0 {
			f.freeSlots = append(f.freeSlots, slot)
			continue // free slot
		}
		name := decodeName(ent[4:])
		f.dcache[name] = dirSlot{ino: ino, slot: slot}
		f.inodeUsed[ino] = true
	}
	return f, nil
}

func decodeName(b []byte) string {
	n := 0
	for n < len(b) && b[n] != 0 {
		n++
	}
	return string(b[:n])
}

// getBlockBuf returns a block-sized scratch buffer (contents undefined);
// putBlockBuf recycles it.  Metadata paths run under mu, so the pool needs
// no locking of its own.
func (f *FS) getBlockBuf() []byte {
	if n := len(f.bufPool); n > 0 {
		b := f.bufPool[n-1]
		f.bufPool = f.bufPool[:n-1]
		return b
	}
	return make([]byte, BlockSize)
}

func (f *FS) putBlockBuf(b []byte) { f.bufPool = append(f.bufPool, b) }

// --- raw block I/O (each call is one memory-disk operation, i.e. one
// ephemeral mapping creation and destruction) ---

func (f *FS) readBlock(ctx *smp.Context, blk int, dst []byte) error {
	return f.d.ReadAt(ctx, dst[:BlockSize], int64(blk)*BlockSize)
}

func (f *FS) writeBlock(ctx *smp.Context, blk int, src []byte) error {
	return f.d.WriteAt(ctx, src[:BlockSize], int64(blk)*BlockSize)
}

// --- bitmap management ---

// blockUsed reports block blk's bitmap bit.
func (f *FS) blockUsed(blk int) bool { return f.bitmap[blk/8]&(1<<(blk%8)) != 0 }

// allocBlock finds the lowest free data block, marks it, writes the bitmap
// block through, and returns the block number.  The scan starts at the
// low-water word: metadata blocks are always marked, so the first clear
// bit at or past it is the lowest free data block, unless it lies in the
// zero padding past the last block.
func (f *FS) allocBlock(ctx *smp.Context) (uint32, error) {
	if f.freeBlocks == 0 {
		return 0, ErrNoSpace
	}
	for w := f.blockHint; 64*w < f.totalBlocks; w++ {
		word := binary.LittleEndian.Uint64(f.bitmap[8*w:])
		if word == ^uint64(0) {
			continue
		}
		blk := 64*w + bits.TrailingZeros64(^word)
		if blk >= f.totalBlocks {
			break
		}
		f.blockHint = w
		f.bitmap[blk/8] |= 1 << (blk % 8)
		f.freeBlocks--
		if err := f.flushBitmapFor(ctx, blk); err != nil {
			return 0, err
		}
		return uint32(blk), nil
	}
	return 0, ErrNoSpace
}

// freeBlock clears a block's bitmap bit and writes the bitmap through.
func (f *FS) freeBlock(ctx *smp.Context, blk uint32) error {
	b := int(blk)
	if b < f.dataStart || b >= f.totalBlocks {
		return fmt.Errorf("fs: freeing metadata or out-of-range block %d", b)
	}
	if !f.blockUsed(b) {
		return fmt.Errorf("fs: double free of block %d", b)
	}
	f.bitmap[b/8] &^= 1 << (b % 8)
	f.freeBlocks++
	f.blockHint = min(f.blockHint, b/64)
	return f.flushBitmapFor(ctx, b)
}

// flushBitmapFor writes the single bitmap block covering blk, straight
// from the image.
func (f *FS) flushBitmapFor(ctx *smp.Context, blk int) error {
	bmBlock := blk / (BlockSize * 8)
	return f.writeBlock(ctx, 1+bmBlock, f.bitmap[bmBlock*BlockSize:(bmBlock+1)*BlockSize])
}

func (f *FS) flushBitmapAll(ctx *smp.Context) error {
	for i := 0; i < f.bitmapBlocks; i++ {
		if err := f.flushBitmapFor(ctx, i*BlockSize*8); err != nil {
			return err
		}
	}
	return nil
}

// --- inode I/O ---

func (f *FS) inodeLoc(ino uint32) (blk int, off int) {
	return 1 + f.bitmapBlocks + int(ino)/InodesPerBlock,
		(int(ino) % InodesPerBlock) * InodeSize
}

// readInode decodes inode ino into n, which the caller owns.
func (f *FS) readInode(ctx *smp.Context, ino uint32, n *inode) error {
	blk, off := f.inodeLoc(ino)
	buf := f.getBlockBuf()
	defer f.putBlockBuf(buf)
	if err := f.readBlock(ctx, blk, buf); err != nil {
		return err
	}
	n.decode(buf[off : off+InodeSize])
	return nil
}

func (f *FS) writeInode(ctx *smp.Context, ino uint32, n *inode) error {
	blk, off := f.inodeLoc(ino)
	buf := f.getBlockBuf()
	defer f.putBlockBuf(buf)
	if err := f.readBlock(ctx, blk, buf); err != nil {
		return err
	}
	n.encode(buf[off : off+InodeSize])
	return f.writeBlock(ctx, blk, buf)
}

// allocInode returns the lowest free inode number (never 0, the root
// directory), scanning from the low-water index.
func (f *FS) allocInode() (uint32, error) {
	for i := f.inodeHint; i < f.maxInodes; i++ {
		if !f.inodeUsed[i] {
			f.inodeUsed[i] = true
			f.inodeHint = i + 1
			return uint32(i), nil
		}
	}
	f.inodeHint = f.maxInodes
	return 0, ErrNoInodes
}

// freeInode marks inode ino free and lowers the low-water index.
func (f *FS) freeInode(ino uint32) {
	f.inodeUsed[ino] = false
	f.inodeHint = min(f.inodeHint, int(ino))
}

// --- accounting ---

// FreeBlocks returns the current free data-block count.
func (f *FS) FreeBlocks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.freeBlocks
}

// NumFiles returns the number of live files (excluding the root
// directory).
func (f *FS) NumFiles() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.dcache)
}

// List returns the live file names in unspecified order.
func (f *FS) List() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.dcache))
	for name := range f.dcache {
		out = append(out, name)
	}
	return out
}
