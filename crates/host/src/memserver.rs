//! The low-power memory page server (§4.3).
//!
//! The prototype pairs each host with a low-power platform sharing a
//! hot-swappable SAS drive. The protocol is strict: before entering sleep
//! the host attaches the drive, writes out its VMs' (compressed) memory
//! pages, detaches, and notifies the low-power processor, which attaches
//! the drive and starts the serving daemon. Only one side may mount the
//! drive at a time. This module models that protocol plus the two upload
//! optimizations (per-page compression and differential upload).

use std::borrow::Borrow;
use std::collections::BTreeMap;

use oasis_mem::{ByteSize, PageNum};
use oasis_power::MemoryServerProfile;
use oasis_sim::SimDuration;
use oasis_telemetry::{Counter, Telemetry};
use oasis_vm::VmId;

/// Which side currently has the shared SAS drive mounted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveOwner {
    /// The host mounts the drive (uploading).
    Host,
    /// The memory server mounts the drive (serving).
    Server,
    /// Nobody has it mounted.
    Detached,
}

/// Pages one VM image may span: stored pfns run `0..MAX_IMAGE_PAGES`.
///
/// Images are indexed densely by pfn, so this cap is what bounds the
/// memory a crafted pfn in an upload can make the server allocate. 2^24 pages is 64 GiB of guest memory, 16× the paper's
/// 4 GiB desktop VMs; the largest index it allows is 64 MiB.
pub const MAX_IMAGE_PAGES: u64 = 1 << 24;

/// Marks a pfn with no stored page in an image's length array. The
/// on-disk length field is a `u32`, so a page must compress to fewer than
/// `u32::MAX` bytes to be stored.
const ABSENT: u32 = u32::MAX;

/// Errors from memory-server operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsError {
    /// The drive is mounted on the wrong side for this operation.
    DriveNotMounted(DriveOwner),
    /// The serving daemon is not running.
    NotServing,
    /// No image uploaded for this VM.
    UnknownVm(VmId),
    /// The VM's image does not contain this page.
    UnknownPage(VmId, PageNum),
    /// The page lies at or beyond [`MAX_IMAGE_PAGES`].
    PageOutOfRange(VmId, PageNum),
    /// The page's compressed length does not fit the on-disk length field.
    OversizedPage(VmId, PageNum, ByteSize),
    /// Both sides tried to mount at once.
    DriveBusy,
    /// The serving daemon has crashed and not yet restarted.
    Crashed,
}

impl core::fmt::Display for MsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MsError::DriveNotMounted(o) => write!(f, "drive mounted at {o:?}"),
            MsError::NotServing => write!(f, "serving daemon not active"),
            MsError::UnknownVm(id) => write!(f, "no memory image for {id}"),
            MsError::UnknownPage(id, p) => write!(f, "{id}: {p:?} not in image"),
            MsError::PageOutOfRange(id, p) => {
                write!(f, "{id}: {p:?} beyond the {MAX_IMAGE_PAGES}-page image limit")
            }
            MsError::OversizedPage(id, p, size) => {
                write!(f, "{id}: {p:?} length {size} does not fit the on-disk field")
            }
            MsError::DriveBusy => write!(f, "drive already mounted elsewhere"),
            MsError::Crashed => write!(f, "serving daemon crashed"),
        }
    }
}

impl std::error::Error for MsError {}

/// Receipt describing one upload batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UploadReceipt {
    /// Pages written in this batch.
    pub pages: u64,
    /// Raw bytes those pages represent.
    pub raw: ByteSize,
    /// Compressed bytes actually written to the drive.
    pub compressed: ByteSize,
    /// Write time at the SAS sequential bandwidth.
    pub duration: SimDuration,
}

/// Aggregate serving statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Page requests served.
    pub requests: u64,
    /// Compressed bytes sent to memtap clients.
    pub bytes_sent: ByteSize,
}

/// One VM's image on the drive: each stored page's compressed length,
/// indexed by pfn.
#[derive(Clone, Debug, Default)]
struct Image {
    /// Compressed length by pfn, [`ABSENT`] where no page is stored; only
    /// as long as the highest pfn stored so far.
    lens: Vec<u32>,
    /// Entries of `lens` that are not [`ABSENT`].
    stored: u64,
}

impl Image {
    /// Stores `page` with compressed length `size`, replacing any earlier
    /// length for it. Rejects a page the dense index cannot hold.
    fn insert(&mut self, vm: VmId, page: PageNum, size: ByteSize) -> Result<(), MsError> {
        if page.0 >= MAX_IMAGE_PAGES {
            return Err(MsError::PageOutOfRange(vm, page));
        }
        let len = u32::try_from(size.as_bytes())
            .ok()
            .filter(|&len| len != ABSENT)
            .ok_or(MsError::OversizedPage(vm, page, size))?;
        let i = page.0 as usize;
        if i >= self.lens.len() {
            self.lens.resize(i + 1, ABSENT);
        }
        if self.lens[i] == ABSENT {
            self.stored += 1;
        }
        self.lens[i] = len;
        Ok(())
    }

    /// The compressed length stored for `page`.
    fn get(&self, page: PageNum) -> Option<u32> {
        self.lens.get(page.0 as usize).copied().filter(|&len| len != ABSENT)
    }

    /// Total compressed bytes stored.
    fn bytes(&self) -> u64 {
        self.lens.iter().filter(|&&len| len != ABSENT).map(|&len| u64::from(len)).sum()
    }

    fn clear(&mut self) {
        self.lens.clear();
        self.stored = 0;
    }
}

/// The per-host memory server.
#[derive(Clone, Debug)]
pub struct MemoryServer {
    profile: MemoryServerProfile,
    drive: DriveOwner,
    serving: bool,
    crashed: bool,
    /// Fault-injection fuse: the daemon dies right after this many more
    /// successful serves ([`MemoryServer::schedule_crash_after`]).
    crash_fuse: Option<u64>,
    /// Per-VM image: the compressed size on disk of each stored page.
    images: BTreeMap<VmId, Image>,
    stats: ServeStats,
    // Serving sits on the guest fault path, so counter handles are cached.
    pages_served: Counter,
    upload_bytes: Counter,
}

impl MemoryServer {
    /// Creates a memory server with the drive initially at the host.
    pub fn new(profile: MemoryServerProfile) -> Self {
        MemoryServer::with_telemetry(profile, &Telemetry::disabled())
    }

    /// Like [`MemoryServer::new`], but wired to a telemetry registry:
    /// `memserver_pages_served_total` counts page requests answered and
    /// `memserver_upload_bytes_total` counts compressed bytes written to
    /// the shared drive.
    pub fn with_telemetry(profile: MemoryServerProfile, telemetry: &Telemetry) -> Self {
        MemoryServer {
            profile,
            drive: DriveOwner::Host,
            serving: false,
            crashed: false,
            crash_fuse: None,
            images: BTreeMap::new(),
            stats: ServeStats::default(),
            pages_served: telemetry.metrics().counter("memserver_pages_served_total", &[]),
            upload_bytes: telemetry.metrics().counter("memserver_upload_bytes_total", &[]),
        }
    }

    /// The power/performance profile.
    pub fn profile(&self) -> &MemoryServerProfile {
        &self.profile
    }

    /// Current drive owner.
    pub fn drive_owner(&self) -> DriveOwner {
        self.drive
    }

    /// `true` while the serving daemon runs.
    pub fn is_serving(&self) -> bool {
        self.serving
    }

    /// `true` between a [`MemoryServer::crash`] and the next restart or
    /// host reclaim.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Serving statistics so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Mounts the drive on the host side (before uploads).
    ///
    /// Reclaiming the drive from a crashed daemon is allowed — the images
    /// live on disk, so the host simply takes over — and clears the
    /// crashed flag (the daemon's state dies with it).
    pub fn mount_at_host(&mut self) -> Result<(), MsError> {
        match self.drive {
            DriveOwner::Server if self.serving => Err(MsError::DriveBusy),
            _ => {
                self.drive = DriveOwner::Host;
                self.crashed = false;
                Ok(())
            }
        }
    }

    /// Uploads (writes) pages of a VM's memory image.
    ///
    /// `pages` streams each page with its compressed size. With
    /// `differential` set, existing entries are overwritten and new ones
    /// added without rewriting the rest of the image (§4.3's differential
    /// upload); otherwise the VM's image is replaced wholesale.
    ///
    /// A page at or beyond [`MAX_IMAGE_PAGES`] fails with
    /// [`MsError::PageOutOfRange`], and a compressed size the on-disk
    /// `u32` length field cannot hold fails with [`MsError::OversizedPage`].
    /// An upload that fails on a page discards the VM's image, so a
    /// half-written image is never served.
    pub fn upload(
        &mut self,
        vm: VmId,
        pages: impl IntoIterator<Item = impl Borrow<(PageNum, ByteSize)>>,
        differential: bool,
    ) -> Result<UploadReceipt, MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        let image = self.images.entry(vm).or_default();
        if !differential {
            image.clear();
        }
        let mut count = 0u64;
        let mut compressed = ByteSize::ZERO;
        for entry in pages {
            let &(page, size) = entry.borrow();
            if let Err(e) = image.insert(vm, page, size) {
                self.images.remove(&vm);
                return Err(e);
            }
            count += 1;
            compressed += size;
        }
        let raw = ByteSize::bytes(count * oasis_mem::PAGE_SIZE);
        let duration = SimDuration::from_secs_f64(
            compressed.as_bytes() as f64 / self.profile.upload_bytes_per_sec,
        );
        self.upload_bytes.add(compressed.as_bytes());
        Ok(UploadReceipt { pages: count, raw, compressed, duration })
    }

    /// Host detaches; the low-power processor attaches and starts the
    /// daemon. After this the host may sleep.
    pub fn handoff_to_server(&mut self) -> Result<(), MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        self.drive = DriveOwner::Server;
        self.serving = true;
        Ok(())
    }

    /// Host woke and its VMs returned: daemon stops, drive detaches.
    pub fn handoff_to_host(&mut self) -> Result<(), MsError> {
        if self.crashed {
            return Err(MsError::Crashed);
        }
        if !self.serving {
            return Err(MsError::NotServing);
        }
        self.serving = false;
        self.drive = DriveOwner::Host;
        Ok(())
    }

    /// The serving daemon dies (low-power processor fault).
    ///
    /// Serving stops; the drive stays attached to the dead server until a
    /// [`MemoryServer::restart`] or a host reclaim via
    /// [`MemoryServer::mount_at_host`]. Images survive: they live on the
    /// drive, not in the daemon.
    pub fn crash(&mut self) {
        self.serving = false;
        self.crashed = true;
        self.crash_fuse = None;
    }

    /// Arms a fault-injection fuse: the serving daemon crashes immediately
    /// after `served` more successful [`MemoryServer::serve_page`] calls
    /// (a fuse of 0 crashes on the next attempt, before it is answered).
    ///
    /// Unlike [`MemoryServer::crash`], the crash lands at an exact point
    /// in a request stream, which is how a daemon death interleaves with a
    /// run of demand faults: every later request errors with
    /// [`MsError::Crashed`] until a restart.
    pub fn schedule_crash_after(&mut self, served: u64) {
        self.crash_fuse = Some(served);
    }

    /// The low-power processor reboots, re-attaches the drive and resumes
    /// serving from the on-disk images.
    ///
    /// Fails with [`MsError::DriveBusy`] if the host reclaimed the drive
    /// in the meantime (the daemon cannot serve without it).
    pub fn restart(&mut self) -> Result<(), MsError> {
        if self.drive == DriveOwner::Host {
            return Err(MsError::DriveBusy);
        }
        self.drive = DriveOwner::Server;
        self.crashed = false;
        self.serving = true;
        Ok(())
    }

    /// Serves one page request by guest pseudo frame number.
    ///
    /// Returns the compressed size read from the drive and sent on the
    /// wire.
    pub fn serve_page(&mut self, vm: VmId, page: PageNum) -> Result<ByteSize, MsError> {
        if self.crashed {
            return Err(MsError::Crashed);
        }
        if !self.serving {
            return Err(MsError::NotServing);
        }
        if self.crash_fuse == Some(0) {
            self.serving = false;
            self.crashed = true;
            self.crash_fuse = None;
            return Err(MsError::Crashed);
        }
        let image = self.images.get(&vm).ok_or(MsError::UnknownVm(vm))?;
        let size = image.get(page).ok_or(MsError::UnknownPage(vm, page))?;
        let size = ByteSize::bytes(u64::from(size));
        self.stats.requests += 1;
        self.stats.bytes_sent += size;
        self.pages_served.inc();
        if let Some(fuse) = &mut self.crash_fuse {
            *fuse -= 1;
            if *fuse == 0 {
                self.serving = false;
                self.crashed = true;
                self.crash_fuse = None;
            }
        }
        Ok(size)
    }

    /// Latency to serve one request, excluding network transfer.
    pub fn service_time(&self) -> SimDuration {
        self.profile.page_service_time
    }

    /// Frees a VM's image (e.g. after a completed full migration, §4.2).
    ///
    /// Returns the compressed bytes released.
    pub fn remove_vm(&mut self, vm: VmId) -> ByteSize {
        self.images.remove(&vm).map(|img| ByteSize::bytes(img.bytes())).unwrap_or(ByteSize::ZERO)
    }

    /// Pages stored for a VM.
    pub fn stored_pages(&self, vm: VmId) -> u64 {
        self.images.get(&vm).map_or(0, |img| img.stored)
    }

    /// Total compressed bytes stored across all images.
    pub fn stored_bytes(&self) -> ByteSize {
        ByteSize::bytes(self.images.values().map(Image::bytes).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(range: core::ops::Range<u64>, size: u64) -> Vec<(PageNum, ByteSize)> {
        range.map(|i| (PageNum(i), ByteSize::bytes(size))).collect()
    }

    fn server() -> MemoryServer {
        MemoryServer::new(MemoryServerProfile::prototype())
    }

    #[test]
    fn upload_then_serve_protocol() {
        let mut ms = server();
        let receipt = ms.upload(VmId(1), pages(0..100, 1_500), false).unwrap();
        assert_eq!(receipt.pages, 100);
        assert_eq!(receipt.compressed, ByteSize::bytes(150_000));
        assert_eq!(receipt.raw, ByteSize::bytes(409_600));
        // Cannot serve before handoff.
        assert_eq!(ms.serve_page(VmId(1), PageNum(5)), Err(MsError::NotServing));
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(5)).unwrap(), ByteSize::bytes(1_500));
        assert_eq!(ms.stats().requests, 1);
    }

    #[test]
    fn upload_requires_drive_at_host() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 1_000), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert!(matches!(
            ms.upload(VmId(1), pages(0..10, 1_000), true),
            Err(MsError::DriveNotMounted(DriveOwner::Server))
        ));
        // Host must wait for handoff back before re-mounting.
        assert_eq!(ms.mount_at_host(), Err(MsError::DriveBusy));
        ms.handoff_to_host().unwrap();
        assert!(ms.upload(VmId(1), pages(0..10, 1_000), true).is_ok());
    }

    #[test]
    fn differential_upload_overwrites_in_place() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..100, 1_000), false).unwrap();
        // Differential: 10 dirty pages rewritten, 5 new appended.
        let dirty = pages(0..10, 1_200);
        let new = pages(100..105, 900);
        let batch: Vec<_> = dirty.into_iter().chain(new).collect();
        let receipt = ms.upload(VmId(1), &batch, true).unwrap();
        assert_eq!(receipt.pages, 15);
        assert_eq!(ms.stored_pages(VmId(1)), 105);
        ms.handoff_to_server().unwrap();
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(3)).unwrap(),
            ByteSize::bytes(1_200),
            "dirty page got its new size"
        );
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(50)).unwrap(),
            ByteSize::bytes(1_000),
            "clean page untouched"
        );
    }

    #[test]
    fn full_upload_replaces_image() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..100, 1_000), false).unwrap();
        ms.upload(VmId(1), pages(50..60, 1_000), false).unwrap();
        assert_eq!(ms.stored_pages(VmId(1)), 10);
    }

    #[test]
    fn upload_duration_matches_sas_bandwidth() {
        let mut ms = server();
        // 1.28 GiB compressed at 128 MiB/s = 10.24 s.
        let batch: Vec<_> = (0..1_024u64).map(|i| (PageNum(i), ByteSize::mib(1))).collect();
        let receipt = ms.upload(VmId(1), &batch, false).unwrap();
        assert!((receipt.duration.as_secs_f64() - 8.0).abs() < 0.01);
    }

    #[test]
    fn serve_unknown_vm_and_page() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(2), PageNum(0)), Err(MsError::UnknownVm(VmId(2))));
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(99)),
            Err(MsError::UnknownPage(VmId(1), PageNum(99)))
        );
    }

    #[test]
    fn remove_vm_frees_storage() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.upload(VmId(2), pages(0..10, 700), false).unwrap();
        assert_eq!(ms.stored_bytes(), ByteSize::bytes(12_000));
        assert_eq!(ms.remove_vm(VmId(1)), ByteSize::bytes(5_000));
        assert_eq!(ms.stored_bytes(), ByteSize::bytes(7_000));
        assert_eq!(ms.remove_vm(VmId(1)), ByteSize::ZERO);
    }

    #[test]
    fn upload_rejects_length_beyond_on_disk_field() {
        let mut ms = server();
        // The length field is a u32: a larger size used to be truncated on
        // disk while the receipt reported it in full.
        let big = ByteSize::bytes(u64::from(u32::MAX) + 5);
        assert_eq!(
            ms.upload(VmId(4), [(PageNum(1), big)], false),
            Err(MsError::OversizedPage(VmId(4), PageNum(1), big))
        );
        let marker = ByteSize::bytes(u64::from(u32::MAX));
        assert_eq!(
            ms.upload(VmId(4), [(PageNum(1), marker)], false),
            Err(MsError::OversizedPage(VmId(4), PageNum(1), marker))
        );
        assert_eq!(ms.stored_bytes(), ByteSize::ZERO, "nothing half-written");
        let largest = ByteSize::bytes(u64::from(u32::MAX - 1));
        let receipt = ms.upload(VmId(4), [(PageNum(1), largest)], false).unwrap();
        assert_eq!(receipt.compressed, largest);
        assert_eq!(ms.stored_bytes(), largest, "receipt and image agree");
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(4), PageNum(1)), Ok(largest));
    }

    #[test]
    fn image_limit_bounds_upload() {
        let last = PageNum(MAX_IMAGE_PAGES - 1);
        let beyond = PageNum(MAX_IMAGE_PAGES);
        let mut ms = server();
        ms.upload(VmId(1), pages(0..4, 500), false).unwrap();
        let batch = [(PageNum(0), ByteSize::bytes(600)), (beyond, ByteSize::bytes(600))];
        assert_eq!(ms.upload(VmId(1), batch, true), Err(MsError::PageOutOfRange(VmId(1), beyond)));
        assert_eq!(ms.stored_pages(VmId(1)), 0, "a failed upload discards the image");
        ms.upload(VmId(1), [(last, ByteSize::bytes(600))], false).unwrap();
        assert_eq!(ms.stored_pages(VmId(1)), 1);
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), last), Ok(ByteSize::bytes(600)));
    }

    #[test]
    fn differential_upload_grows_past_the_image_end() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        let batch: Vec<_> = pages(5..8, 800).into_iter().chain(pages(1_000..1_003, 900)).collect();
        let receipt = ms.upload(VmId(1), &batch, true).unwrap();
        assert_eq!(receipt.pages, 6);
        assert_eq!(ms.stored_pages(VmId(1)), 13);
        assert_eq!(ms.stored_bytes(), ByteSize::bytes(7 * 500 + 3 * 800 + 3 * 900));
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(4)), Ok(ByteSize::bytes(500)));
        assert_eq!(ms.serve_page(VmId(1), PageNum(6)), Ok(ByteSize::bytes(800)));
        assert_eq!(ms.serve_page(VmId(1), PageNum(1_002)), Ok(ByteSize::bytes(900)));
        assert_eq!(
            ms.serve_page(VmId(1), PageNum(500)),
            Err(MsError::UnknownPage(VmId(1), PageNum(500))),
            "the gap grown over stays absent"
        );
    }

    #[test]
    fn upload_streams_from_an_iterator() {
        let mut ms = server();
        let stream = (0..50u64).map(|i| (PageNum(i * 2), ByteSize::bytes(100 + i)));
        let receipt = ms.upload(VmId(1), stream, false).unwrap();
        assert_eq!(receipt.pages, 50);
        assert_eq!(receipt.compressed, ByteSize::bytes((100..150).sum()));
        assert_eq!(ms.stored_bytes(), receipt.compressed);
    }

    #[test]
    fn handoff_requires_correct_states() {
        let mut ms = server();
        assert_eq!(ms.handoff_to_host(), Err(MsError::NotServing));
        ms.handoff_to_server().unwrap();
        assert!(ms.is_serving());
        assert_eq!(ms.handoff_to_server(), Err(MsError::DriveNotMounted(DriveOwner::Server)));
    }

    #[test]
    fn double_attach_is_rejected_on_both_sides() {
        let mut ms = server();
        // Host side: re-mounting while already at the host is idempotent...
        ms.mount_at_host().unwrap();
        ms.mount_at_host().unwrap();
        ms.handoff_to_server().unwrap();
        // ...but the server cannot attach twice, and the host cannot grab
        // the drive out from under a live daemon.
        assert_eq!(ms.handoff_to_server(), Err(MsError::DriveNotMounted(DriveOwner::Server)));
        assert_eq!(ms.mount_at_host(), Err(MsError::DriveBusy));
    }

    #[test]
    fn serve_after_crash_errors_until_restart() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.crash();
        assert!(ms.is_crashed());
        assert!(!ms.is_serving());
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::Crashed));
        assert_eq!(ms.handoff_to_host(), Err(MsError::Crashed));
        // Daemon reboot: images survived on the drive and serving resumes.
        ms.restart().unwrap();
        assert!(!ms.is_crashed());
        assert_eq!(ms.serve_page(VmId(1), PageNum(4)).unwrap(), ByteSize::bytes(500));
    }

    #[test]
    fn crash_fuse_fires_after_exact_serve_count() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(2);
        assert!(ms.serve_page(VmId(1), PageNum(0)).is_ok());
        assert!(!ms.is_crashed());
        assert!(ms.serve_page(VmId(1), PageNum(1)).is_ok(), "last serve still answered");
        assert!(ms.is_crashed(), "daemon dies right after the fused serve");
        assert_eq!(ms.serve_page(VmId(1), PageNum(2)), Err(MsError::Crashed));
        assert_eq!(ms.stats().requests, 2, "only answered requests counted");
        // Restart clears the fuse along with the crash.
        ms.restart().unwrap();
        assert!(ms.serve_page(VmId(1), PageNum(2)).is_ok());
        assert!(ms.serve_page(VmId(1), PageNum(3)).is_ok());
        assert!(!ms.is_crashed());
    }

    #[test]
    fn zero_fuse_crashes_before_answering() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(0);
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::Crashed));
        assert!(ms.is_crashed());
        assert_eq!(ms.stats().requests, 0);
    }

    #[test]
    fn host_reclaims_drive_from_crashed_daemon() {
        let mut ms = server();
        ms.upload(VmId(1), pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.crash();
        // The woken host takes the drive back and the crashed flag clears.
        ms.mount_at_host().unwrap();
        assert_eq!(ms.drive_owner(), DriveOwner::Host);
        assert!(!ms.is_crashed());
        assert_eq!(ms.stored_pages(VmId(1)), 10, "images live on the drive");
        // Once the host owns the drive a daemon restart must fail.
        assert_eq!(ms.restart(), Err(MsError::DriveBusy));
        // Normal protocol resumes from here.
        ms.handoff_to_server().unwrap();
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)).unwrap(), ByteSize::bytes(500));
    }
}
