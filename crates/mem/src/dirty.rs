//! Dirty-page logging.
//!
//! Differential upload and reintegration (§4.2–4.3) need the exact set of
//! pages dirtied since an epoch boundary — [`DirtyLog`].

use crate::addr::PageNum;
use crate::bitmap::Bitmap;

/// Epoch-based dirty-page log (a shadow page table's write tracking).
#[derive(Clone, Debug)]
pub struct DirtyLog {
    bits: Bitmap,
    epoch: u64,
}

impl DirtyLog {
    /// Creates a log covering `num_pages` pages, all clean, at epoch 0.
    pub fn new(num_pages: u64) -> Self {
        DirtyLog { bits: Bitmap::new(num_pages as usize), epoch: 0 }
    }

    /// Records a write to `page`; out-of-range pages are ignored.
    pub fn record(&mut self, page: PageNum) {
        let i = page.0 as usize;
        if i < self.bits.len() {
            self.bits.set(i);
        }
    }

    /// Number of distinct pages dirtied this epoch.
    pub fn dirty_count(&self) -> u64 {
        self.bits.count_ones() as u64
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Closes the epoch: returns the dirtied pages and starts a new epoch.
    pub fn take_epoch(&mut self) -> Vec<PageNum> {
        self.epoch += 1;
        self.bits.drain_ones().into_iter().map(|i| PageNum(i as u64)).collect()
    }

    /// `true` if `page` is dirty in the current epoch.
    pub fn is_dirty(&self, page: PageNum) -> bool {
        let i = page.0 as usize;
        i < self.bits.len() && self.bits.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_log_epochs() {
        let mut log = DirtyLog::new(100);
        log.record(PageNum(1));
        log.record(PageNum(1));
        log.record(PageNum(50));
        assert_eq!(log.dirty_count(), 2);
        assert!(log.is_dirty(PageNum(1)));
        assert!(!log.is_dirty(PageNum(2)));
        let epoch0 = log.take_epoch();
        assert_eq!(epoch0, vec![PageNum(1), PageNum(50)]);
        assert_eq!(log.epoch(), 1);
        assert_eq!(log.dirty_count(), 0);
        log.record(PageNum(99));
        assert_eq!(log.take_epoch(), vec![PageNum(99)]);
    }

    #[test]
    fn dirty_log_ignores_out_of_range() {
        let mut log = DirtyLog::new(10);
        log.record(PageNum(10));
        log.record(PageNum(1_000_000));
        assert_eq!(log.dirty_count(), 0);
        assert!(!log.is_dirty(PageNum(10)));
    }
}
