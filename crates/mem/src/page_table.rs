//! Per-VM pseudo-physical page tables.
//!
//! When the host agent creates a partial VM it builds page tables whose
//! entries are marked absent, so any access faults and memtap fetches the
//! page from the memory server (§4.2). This module models that structure:
//! present/accessed/dirty bits per page plus a dense, pfn-indexed array of
//! the machine frames backing installed pages. The array grows lazily to
//! the highest installed pfn, so a resident table that never installs a
//! page allocates no frame storage.

use crate::addr::{size_of_pages, MachineFrame, PageNum};
use crate::bitmap::Bitmap;
use crate::size::ByteSize;

/// Outcome of a guest access through the page table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The page is resident; access completed.
    Hit,
    /// The page is absent; the vCPU blocks until the page is installed.
    Fault,
}

/// Error type for page-table operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageTableError {
    /// The page number exceeds the VM's allocation.
    OutOfRange(PageNum),
    /// Installing a page that is already present.
    AlreadyPresent(PageNum),
    /// The frame number is the table's reserved "no frame" marker, which
    /// no chunk allocator can hand out.
    ReservedFrame(MachineFrame),
}

impl core::fmt::Display for PageTableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PageTableError::OutOfRange(p) => write!(f, "{p:?} beyond VM allocation"),
            PageTableError::AlreadyPresent(p) => write!(f, "{p:?} already present"),
            PageTableError::ReservedFrame(m) => write!(f, "{m:?} is reserved"),
        }
    }
}

impl std::error::Error for PageTableError {}

/// Marks a pfn with no installed frame in [`PageTable`]'s frame array.
///
/// A chunk allocator over a `u64` byte capacity hands out frames below
/// `u64::MAX / PAGE_SIZE`, so no real frame can collide with it.
const NO_FRAME: u64 = u64::MAX;

/// A VM's pseudo-physical page table.
#[derive(Clone, Debug)]
pub struct PageTable {
    present: Bitmap,
    accessed: Bitmap,
    dirty: Bitmap,
    /// Backing frame by pfn, [`NO_FRAME`] where none is installed; only
    /// as long as the highest pfn installed so far.
    frames: Vec<u64>,
}

impl PageTable {
    /// Creates a table for a fully resident VM (all entries present).
    ///
    /// Frames are left unassigned; callers that model the host's physical
    /// memory can install mappings explicitly.
    pub fn new_resident(num_pages: u64) -> Self {
        let mut present = Bitmap::new(num_pages as usize);
        present.set_all();
        PageTable {
            present,
            accessed: Bitmap::new(num_pages as usize),
            dirty: Bitmap::new(num_pages as usize),
            frames: Vec::new(),
        }
    }

    /// Creates a table for a partial VM (all entries absent, §4.2).
    pub fn new_absent(num_pages: u64) -> Self {
        PageTable {
            present: Bitmap::new(num_pages as usize),
            accessed: Bitmap::new(num_pages as usize),
            dirty: Bitmap::new(num_pages as usize),
            frames: Vec::new(),
        }
    }

    /// Number of pages in the VM's allocation.
    pub fn num_pages(&self) -> u64 {
        self.present.len() as u64
    }

    /// Number of resident pages.
    pub fn present_count(&self) -> u64 {
        self.present.count_ones() as u64
    }

    /// Bytes of resident memory.
    pub fn resident_bytes(&self) -> ByteSize {
        size_of_pages(self.present_count())
    }

    /// Number of pages accessed since the last [`clear_accessed`].
    ///
    /// [`clear_accessed`]: PageTable::clear_accessed
    pub fn accessed_count(&self) -> u64 {
        self.accessed.count_ones() as u64
    }

    /// Number of pages dirtied since the last [`take_dirty`].
    ///
    /// [`take_dirty`]: PageTable::take_dirty
    pub fn dirty_count(&self) -> u64 {
        self.dirty.count_ones() as u64
    }

    /// `true` if the page is resident.
    pub fn is_present(&self, page: PageNum) -> bool {
        (page.0 as usize) < self.present.len() && self.present.get(page.0 as usize)
    }

    fn check_range(&self, page: PageNum) -> Result<usize, PageTableError> {
        let i = page.0 as usize;
        if i >= self.present.len() {
            Err(PageTableError::OutOfRange(page))
        } else {
            Ok(i)
        }
    }

    /// Performs a guest access; returns [`Access::Fault`] for absent pages.
    ///
    /// On a hit the accessed bit is set, and the dirty bit too for writes.
    pub fn touch(&mut self, page: PageNum, write: bool) -> Result<Access, PageTableError> {
        let i = self.check_range(page)?;
        if !self.present.get(i) {
            return Ok(Access::Fault);
        }
        self.accessed.set(i);
        if write {
            self.dirty.set(i);
        }
        Ok(Access::Hit)
    }

    /// Installs a fetched page into `frame`, completing a fault.
    ///
    /// `MachineFrame(u64::MAX)` is the frame array's absent marker and is
    /// rejected with [`PageTableError::ReservedFrame`].
    pub fn install(&mut self, page: PageNum, frame: MachineFrame) -> Result<(), PageTableError> {
        let i = self.check_range(page)?;
        if self.present.get(i) {
            return Err(PageTableError::AlreadyPresent(page));
        }
        if frame.0 == NO_FRAME {
            return Err(PageTableError::ReservedFrame(frame));
        }
        self.present.set(i);
        self.accessed.set(i);
        if i >= self.frames.len() {
            self.frames.resize(i + 1, NO_FRAME);
        }
        self.frames[i] = frame.0;
        Ok(())
    }

    /// Removes a page, returning its frame if one was mapped.
    pub fn evict(&mut self, page: PageNum) -> Result<Option<MachineFrame>, PageTableError> {
        let i = self.check_range(page)?;
        self.present.clear(i);
        self.accessed.clear(i);
        self.dirty.clear(i);
        let frame = self.frames.get_mut(i).map(|f| std::mem::replace(f, NO_FRAME));
        Ok(frame.filter(|&f| f != NO_FRAME).map(MachineFrame))
    }

    /// The machine frame backing a resident page, if assigned.
    pub fn frame_of(&self, page: PageNum) -> Option<MachineFrame> {
        self.frames.get(page.0 as usize).copied().filter(|&f| f != NO_FRAME).map(MachineFrame)
    }

    /// Pages dirtied since the last call; clears the dirty bits.
    ///
    /// This is the primitive behind differential upload (§4.3) and
    /// reintegration of only dirty state (§4.2).
    pub fn take_dirty(&mut self) -> Vec<PageNum> {
        self.dirty.drain_ones().into_iter().map(|i| PageNum(i as u64)).collect()
    }

    /// Pages accessed since the last [`clear_accessed`].
    ///
    /// [`clear_accessed`]: PageTable::clear_accessed
    pub fn accessed_pages(&self) -> Vec<PageNum> {
        self.accessed.iter_ones().map(|i| PageNum(i as u64)).collect()
    }

    /// Clears all accessed bits (start of a new tracking epoch).
    pub fn clear_accessed(&mut self) {
        self.accessed.clear_all();
    }

    /// Iterates over resident page numbers in ascending order.
    pub fn present_pages(&self) -> impl Iterator<Item = PageNum> + '_ {
        self.present.iter_ones().map(|i| PageNum(i as u64))
    }

    /// Marks every page dirty (e.g. first pre-copy iteration copies all).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.set_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_table_hits() {
        let mut pt = PageTable::new_resident(100);
        assert_eq!(pt.present_count(), 100);
        assert_eq!(pt.touch(PageNum(5), false), Ok(Access::Hit));
        assert_eq!(pt.accessed_count(), 1);
        assert_eq!(pt.dirty_count(), 0);
        assert_eq!(pt.touch(PageNum(5), true), Ok(Access::Hit));
        assert_eq!(pt.dirty_count(), 1);
    }

    #[test]
    fn absent_table_faults_until_installed() {
        let mut pt = PageTable::new_absent(100);
        assert_eq!(pt.present_count(), 0);
        assert_eq!(pt.touch(PageNum(7), false), Ok(Access::Fault));
        pt.install(PageNum(7), MachineFrame(42)).unwrap();
        assert_eq!(pt.touch(PageNum(7), false), Ok(Access::Hit));
        assert_eq!(pt.frame_of(PageNum(7)), Some(MachineFrame(42)));
        assert_eq!(pt.present_count(), 1);
        assert_eq!(pt.resident_bytes(), ByteSize::bytes(4_096));
    }

    #[test]
    fn double_install_rejected() {
        let mut pt = PageTable::new_absent(10);
        pt.install(PageNum(1), MachineFrame(1)).unwrap();
        assert_eq!(
            pt.install(PageNum(1), MachineFrame(2)),
            Err(PageTableError::AlreadyPresent(PageNum(1)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut pt = PageTable::new_absent(10);
        assert_eq!(pt.touch(PageNum(10), false), Err(PageTableError::OutOfRange(PageNum(10))));
        assert!(pt.install(PageNum(11), MachineFrame(0)).is_err());
        assert!(pt.evict(PageNum(12)).is_err());
        assert!(!pt.is_present(PageNum(10_000)));
    }

    #[test]
    fn take_dirty_resets_epoch() {
        let mut pt = PageTable::new_resident(50);
        pt.touch(PageNum(3), true).unwrap();
        pt.touch(PageNum(9), true).unwrap();
        pt.touch(PageNum(9), true).unwrap();
        let dirty = pt.take_dirty();
        assert_eq!(dirty, vec![PageNum(3), PageNum(9)]);
        assert_eq!(pt.dirty_count(), 0);
        pt.touch(PageNum(4), true).unwrap();
        assert_eq!(pt.take_dirty(), vec![PageNum(4)]);
    }

    #[test]
    fn evict_clears_metadata() {
        let mut pt = PageTable::new_absent(10);
        pt.install(PageNum(2), MachineFrame(5)).unwrap();
        pt.touch(PageNum(2), true).unwrap();
        let frame = pt.evict(PageNum(2)).unwrap();
        assert_eq!(frame, Some(MachineFrame(5)));
        assert_eq!(pt.touch(PageNum(2), false), Ok(Access::Fault));
        assert_eq!(pt.dirty_count(), 0);
    }

    #[test]
    fn accessed_tracking() {
        let mut pt = PageTable::new_resident(20);
        pt.touch(PageNum(1), false).unwrap();
        pt.touch(PageNum(2), false).unwrap();
        assert_eq!(pt.accessed_pages(), vec![PageNum(1), PageNum(2)]);
        pt.clear_accessed();
        assert_eq!(pt.accessed_count(), 0);
    }

    #[test]
    fn mark_all_dirty_for_precopy() {
        let mut pt = PageTable::new_resident(30);
        pt.mark_all_dirty();
        assert_eq!(pt.take_dirty().len(), 30);
    }

    #[test]
    fn reserved_frame_rejected() {
        let mut pt = PageTable::new_absent(10);
        let reserved = MachineFrame(u64::MAX);
        assert_eq!(pt.install(PageNum(3), reserved), Err(PageTableError::ReservedFrame(reserved)));
        assert!(!pt.is_present(PageNum(3)), "a rejected install changes nothing");
        pt.install(PageNum(3), MachineFrame(u64::MAX - 1)).unwrap();
        assert_eq!(pt.frame_of(PageNum(3)), Some(MachineFrame(u64::MAX - 1)));
    }

    #[test]
    fn frames_grow_only_on_install() {
        let mut pt = PageTable::new_resident(1_000);
        pt.touch(PageNum(999), true).unwrap();
        assert_eq!(pt.frames.capacity(), 0, "a resident table stores no frames");
        assert_eq!(pt.evict(PageNum(999)), Ok(None));
        assert_eq!(pt.frame_of(PageNum(u64::MAX)), None);
        pt.install(PageNum(999), MachineFrame(7)).unwrap();
        assert_eq!(pt.frames.len(), 1_000);
        assert_eq!(pt.frame_of(PageNum(998)), None);
        assert_eq!(pt.evict(PageNum(999)), Ok(Some(MachineFrame(7))));
        assert_eq!(pt.frame_of(PageNum(999)), None);
    }

    #[test]
    fn present_pages_iteration() {
        let mut pt = PageTable::new_absent(10);
        pt.install(PageNum(9), MachineFrame(0)).unwrap();
        pt.install(PageNum(1), MachineFrame(1)).unwrap();
        let pages: Vec<PageNum> = pt.present_pages().collect();
        assert_eq!(pages, vec![PageNum(1), PageNum(9)]);
    }
}
