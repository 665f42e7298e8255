package vm

import (
	"errors"
	"fmt"
)

// UserMem models a user-space buffer: a page-aligned run of physical pages
// standing in for the pages underlying a process's source or destination
// buffer.  Subsystems that implement zero-copy paths (pipe direct writes,
// zero-copy socket sends) wire these pages and hand them to the kernel.
//
// User-space accesses (ReadAt/WriteAt) go straight to the page storage:
// the user TLB is not what the paper measures, so user-side accesses carry
// no kernel-model cost and never consult the kernel page tables.
type UserMem struct {
	pm    *PhysMem
	pages []*Page
	size  int
}

// ErrBounds is returned for out-of-range user buffer accesses.
var ErrBounds = errors.New("vm: user buffer access out of bounds")

// AllocUserMem allocates a user buffer of the given size, rounded up to
// whole pages.
func AllocUserMem(pm *PhysMem, size int) (*UserMem, error) {
	if size <= 0 {
		return nil, fmt.Errorf("vm: invalid user buffer size %d", size)
	}
	n := (size + PageSize - 1) / PageSize
	pages, err := pm.AllocN(n)
	if err != nil {
		return nil, err
	}
	return &UserMem{pm: pm, pages: pages, size: size}, nil
}

// Len returns the buffer size in bytes.
func (u *UserMem) Len() int { return u.size }

// Pages returns the backing pages in address order.  Callers must not
// modify the slice.
func (u *UserMem) Pages() []*Page { return u.pages }

// PageAt returns the page containing byte offset off and the offset of that
// byte within the page.
func (u *UserMem) PageAt(off int) (*Page, int, error) {
	if off < 0 || off >= u.size {
		return nil, 0, ErrBounds
	}
	return u.pages[off/PageSize], off % PageSize, nil
}

// PageRange returns the pages spanning [off, off+n), in order.
func (u *UserMem) PageRange(off, n int) ([]*Page, error) {
	if off < 0 || n < 0 || off+n > u.size {
		return nil, ErrBounds
	}
	if n == 0 {
		return nil, nil
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	return u.pages[first : last+1], nil
}

// WriteAt stores src into the buffer at off, as a user-space access.
// On unbacked memory it validates bounds but moves no bytes.
func (u *UserMem) WriteAt(off int, src []byte) error {
	if off < 0 || off+len(src) > u.size {
		return ErrBounds
	}
	for len(src) > 0 {
		p := u.pages[off/PageSize]
		po := off % PageSize
		n := min(PageSize-po, len(src))
		u.pm.Store(p, po, src[:n])
		src = src[n:]
		off += n
	}
	return nil
}

// ReadAt loads dst from the buffer at off, as a user-space access.
func (u *UserMem) ReadAt(off int, dst []byte) error {
	if off < 0 || off+len(dst) > u.size {
		return ErrBounds
	}
	for len(dst) > 0 {
		p := u.pages[off/PageSize]
		po := off % PageSize
		n := min(PageSize-po, len(dst))
		if d := p.View(); d != nil {
			copy(dst[:n], d[po:po+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// Wire wires every page in [off, off+n), the first half of the pipe and
// zero-copy send protocols.
func (u *UserMem) Wire(off, n int) error {
	pages, err := u.PageRange(off, n)
	if err != nil {
		return err
	}
	for _, p := range pages {
		p.Wire()
	}
	return nil
}

// Unwire reverses Wire for the same range.
func (u *UserMem) Unwire(off, n int) error {
	pages, err := u.PageRange(off, n)
	if err != nil {
		return err
	}
	for _, p := range pages {
		p.Unwire()
	}
	return nil
}

// ReplacePage swaps the page backing page index idx for np, returning the
// previous page.  It implements the zero-copy receive page flip
// (Section 2.3): "the application's current physical page is freed, the
// kernel's physical page replaces it in the application's address space".
// The caller owns the returned page (typically freeing it).
func (u *UserMem) ReplacePage(idx int, np *Page) (*Page, error) {
	if idx < 0 || idx >= len(u.pages) {
		return nil, ErrBounds
	}
	old := u.pages[idx]
	u.pages[idx] = np
	return old, nil
}

// Release returns the buffer's pages to physical memory.  The buffer must
// not be used afterwards.
func (u *UserMem) Release() {
	for _, p := range u.pages {
		u.pm.Free(p)
	}
	u.pages = nil
	u.size = 0
}
