//! The low-power memory page server (§4.3).
//!
//! The prototype pairs each host with a low-power platform sharing a
//! hot-swappable SAS drive. The protocol is strict: before entering sleep
//! the host attaches the drive, writes out its VMs' (compressed) memory
//! pages, detaches, and notifies the low-power processor, which attaches
//! the drive and starts the serving daemon. Only one side may mount the
//! drive at a time. This module models that protocol plus the two upload
//! optimizations (per-page compression and differential upload).

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

/// Magic bytes of the drive image index.
const IMAGE_MAGIC: &[u8; 8] = b"OASISIMG";

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
    /// Both sides tried to mount at once.
    DriveBusy,
    /// An on-disk image index failed to parse.
    CorruptImage,
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
            MsError::DriveBusy => write!(f, "drive already mounted elsewhere"),
            MsError::CorruptImage => write!(f, "corrupt on-disk image index"),
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
    /// Per-VM image: page → compressed size on disk.
    images: BTreeMap<VmId, BTreeMap<u64, u32>>,
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
    /// `pages` carries each page's compressed size. With `differential`
    /// set, existing entries are overwritten and new ones added without
    /// rewriting the rest of the image (§4.3's differential upload);
    /// otherwise the VM's image is replaced wholesale.
    pub fn upload(
        &mut self,
        vm: VmId,
        pages: &[(PageNum, ByteSize)],
        differential: bool,
    ) -> Result<UploadReceipt, MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        let image = self.images.entry(vm).or_default();
        if !differential {
            image.clear();
        }
        let mut compressed = ByteSize::ZERO;
        for &(page, size) in pages {
            image.insert(page.0, size.as_bytes() as u32);
            compressed += size;
        }
        let raw = ByteSize::bytes(pages.len() as u64 * oasis_mem::PAGE_SIZE);
        let duration = SimDuration::from_secs_f64(
            compressed.as_bytes() as f64 / self.profile.upload_bytes_per_sec,
        );
        self.upload_bytes.add(compressed.as_bytes());
        Ok(UploadReceipt { pages: pages.len() as u64, raw, compressed, duration })
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
        let size = image.get(&page.0).copied().ok_or(MsError::UnknownPage(vm, page))?;
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
        self.images
            .remove(&vm)
            .map(|img| ByteSize::bytes(img.values().map(|&s| u64::from(s)).sum()))
            .unwrap_or(ByteSize::ZERO)
    }

    /// Pages stored for a VM.
    pub fn stored_pages(&self, vm: VmId) -> u64 {
        self.images.get(&vm).map_or(0, |img| img.len() as u64)
    }

    /// Serializes a VM's image index to the on-disk format.
    ///
    /// The drive layout the host and the low-power processor exchange:
    /// a magic header, the vmid, and one `(pfn, compressed length)`
    /// record per page. Returns `None` for unknown VMs.
    pub fn export_image(&self, vm: VmId) -> Option<Vec<u8>> {
        let image = self.images.get(&vm)?;
        let mut out = Vec::with_capacity(16 + image.len() * 12);
        out.extend_from_slice(IMAGE_MAGIC);
        out.extend_from_slice(&vm.0.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // Reserved / alignment.
        out.extend_from_slice(&(image.len() as u64).to_le_bytes());
        for (&pfn, &len) in image {
            out.extend_from_slice(&pfn.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        Some(out)
    }

    /// Restores a VM's image index from the on-disk format (e.g. after
    /// the low-power processor rebooted and re-attached the drive).
    ///
    /// Requires the drive mounted at the host, like uploads.
    pub fn import_image(&mut self, bytes: &[u8]) -> Result<VmId, MsError> {
        if self.drive != DriveOwner::Host {
            return Err(MsError::DriveNotMounted(self.drive));
        }
        let err = |_| MsError::CorruptImage;
        if bytes.len() < 24 || &bytes[..8] != IMAGE_MAGIC {
            return Err(MsError::CorruptImage);
        }
        let vm = VmId(u32::from_le_bytes(bytes[8..12].try_into().map_err(err)?));
        let count = u64::from_le_bytes(bytes[16..24].try_into().map_err(err)?) as usize;
        let records = &bytes[24..];
        if records.len() != count * 12 {
            return Err(MsError::CorruptImage);
        }
        let mut image = BTreeMap::new();
        for rec in records.chunks_exact(12) {
            let pfn = u64::from_le_bytes(rec[..8].try_into().map_err(err)?);
            let len = u32::from_le_bytes(rec[8..12].try_into().map_err(err)?);
            image.insert(pfn, len);
        }
        self.images.insert(vm, image);
        Ok(vm)
    }

    /// Total compressed bytes stored across all images.
    pub fn stored_bytes(&self) -> ByteSize {
        ByteSize::bytes(
            self.images.values().flat_map(|img| img.values()).map(|&s| u64::from(s)).sum(),
        )
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
        let receipt = ms.upload(VmId(1), &pages(0..100, 1_500), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..10, 1_000), false).unwrap();
        ms.handoff_to_server().unwrap();
        assert!(matches!(
            ms.upload(VmId(1), &pages(0..10, 1_000), true),
            Err(MsError::DriveNotMounted(DriveOwner::Server))
        ));
        // Host must wait for handoff back before re-mounting.
        assert_eq!(ms.mount_at_host(), Err(MsError::DriveBusy));
        ms.handoff_to_host().unwrap();
        assert!(ms.upload(VmId(1), &pages(0..10, 1_000), true).is_ok());
    }

    #[test]
    fn differential_upload_overwrites_in_place() {
        let mut ms = server();
        ms.upload(VmId(1), &pages(0..100, 1_000), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..100, 1_000), false).unwrap();
        ms.upload(VmId(1), &pages(50..60, 1_000), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
        ms.upload(VmId(2), &pages(0..10, 700), false).unwrap();
        assert_eq!(ms.stored_bytes(), ByteSize::bytes(12_000));
        assert_eq!(ms.remove_vm(VmId(1)), ByteSize::bytes(5_000));
        assert_eq!(ms.stored_bytes(), ByteSize::bytes(7_000));
        assert_eq!(ms.remove_vm(VmId(1)), ByteSize::ZERO);
    }

    #[test]
    fn image_export_import_round_trips() {
        let mut ms = server();
        ms.upload(VmId(1), &pages(0..100, 1_500), false).unwrap();
        ms.upload(VmId(1), &pages(200..210, 900), true).unwrap();
        let blob = ms.export_image(VmId(1)).unwrap();
        assert!(blob.starts_with(b"OASISIMG"));
        assert_eq!(ms.export_image(VmId(9)), None);

        // A fresh server (rebooted low-power processor) restores it.
        let mut fresh = server();
        assert_eq!(fresh.import_image(&blob), Ok(VmId(1)));
        assert_eq!(fresh.stored_pages(VmId(1)), 110);
        fresh.handoff_to_server().unwrap();
        assert_eq!(fresh.serve_page(VmId(1), PageNum(205)).unwrap(), ByteSize::bytes(900));
        assert_eq!(fresh.stored_bytes(), ms.stored_bytes());
    }

    #[test]
    fn image_import_rejects_corruption() {
        let mut ms = server();
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
        let blob = ms.export_image(VmId(1)).unwrap();
        let mut fresh = server();
        assert_eq!(fresh.import_image(&[]), Err(MsError::CorruptImage));
        assert_eq!(
            fresh.import_image(&blob[..blob.len() - 1]),
            Err(MsError::CorruptImage),
            "truncated record section"
        );
        let mut bad_magic = blob.clone();
        bad_magic[0] ^= 1;
        assert_eq!(fresh.import_image(&bad_magic), Err(MsError::CorruptImage));
        // Import requires the drive at the host, like uploads.
        let mut serving = server();
        serving.handoff_to_server().unwrap();
        assert!(matches!(
            serving.import_image(&blob),
            Err(MsError::DriveNotMounted(DriveOwner::Server))
        ));
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
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
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
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
        ms.handoff_to_server().unwrap();
        ms.schedule_crash_after(0);
        assert_eq!(ms.serve_page(VmId(1), PageNum(0)), Err(MsError::Crashed));
        assert!(ms.is_crashed());
        assert_eq!(ms.stats().requests, 0);
    }

    #[test]
    fn host_reclaims_drive_from_crashed_daemon() {
        let mut ms = server();
        ms.upload(VmId(1), &pages(0..10, 500), false).unwrap();
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
