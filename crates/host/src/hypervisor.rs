//! The hypervisor model: VM hosting and extended page-fault handling.
//!
//! §4.2: "When setting up the page tables of a partial VM, the hypervisor
//! marks its page entries as absent which causes page faults whenever the
//! VM attempts to access the pages. … Page fault handling in Xen was
//! extended to allocate frames on-demand and, via an event channel, notify
//! the corresponding memtap process … The hypervisor allocates frames at
//! the granularity of a chunk consisting of 2 MiB."
//!
//! [`Hypervisor`] hosts VMs, routes guest accesses through their page
//! tables, allocates frames from a [`ChunkAllocator`] on demand, and
//! tracks dirty state for reintegration.

use std::collections::BTreeMap;

use oasis_mem::chunk::{ChunkAllocator, CHUNK_SIZE};
use oasis_mem::dirty::DirtyLog;
use oasis_mem::page_table::{Access, PageTable};
use oasis_mem::wss::WorkingSetTracker;
use oasis_mem::{ByteSize, PageNum, PAGE_SIZE};
use oasis_telemetry::{Counter, Event, Telemetry};
use oasis_vm::{Vm, VmId};

use crate::guest::GuestMemoryImage;

/// Errors from hypervisor operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HvError {
    /// The VM is not hosted here.
    UnknownVm(VmId),
    /// A VM with this id already runs here.
    DuplicateVm(VmId),
    /// The host's memory is exhausted.
    OutOfMemory,
    /// The page number is outside the VM's allocation.
    BadPage(VmId, PageNum),
}

impl core::fmt::Display for HvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HvError::UnknownVm(id) => write!(f, "{id} is not hosted here"),
            HvError::DuplicateVm(id) => write!(f, "{id} already exists"),
            HvError::OutOfMemory => write!(f, "host memory exhausted"),
            HvError::BadPage(id, p) => write!(f, "{id}: {p:?} out of range"),
        }
    }
}

impl std::error::Error for HvError {}

/// Result of a guest memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestAccess {
    /// Page resident; access completed locally.
    Hit,
    /// Page absent; the vCPU is paused and memtap must fetch the page.
    FaultPending(PageNum),
}

/// A VM hosted by this hypervisor.
#[derive(Clone, Debug)]
pub struct HostedVm {
    /// Control-plane view.
    pub vm: Vm,
    /// Pseudo-physical page table.
    pub table: PageTable,
    /// Shadow-page-table dirty log (for differential upload and
    /// reintegration).
    pub dirty: DirtyLog,
    /// Unique-touch tracker for working-set measurement.
    pub wss: WorkingSetTracker,
    /// Content model of the VM's memory.
    pub image: GuestMemoryImage,
}

/// The hypervisor of one host.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    allocator: ChunkAllocator,
    vms: BTreeMap<VmId, HostedVm>,
    telemetry: Telemetry,
    /// Cached instrument handles: the fault path is hot, so the registry
    /// is consulted once, not per access.
    hits: Counter,
    faults: Counter,
}

impl Hypervisor {
    /// Creates a hypervisor managing `capacity` of machine memory.
    pub fn new(capacity: ByteSize) -> Self {
        Hypervisor::with_telemetry(capacity, Telemetry::disabled())
    }

    /// Creates a hypervisor reporting to the given telemetry bus.
    pub fn with_telemetry(capacity: ByteSize, telemetry: Telemetry) -> Self {
        let m = telemetry.metrics();
        let hits = m.counter("guest_accesses_total", &[("result", "hit")]);
        let faults = m.counter("guest_accesses_total", &[("result", "fault")]);
        Hypervisor {
            allocator: ChunkAllocator::new(capacity),
            vms: BTreeMap::new(),
            telemetry,
            hits,
            faults,
        }
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Iterates over hosted VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.keys().copied()
    }

    /// Access to a hosted VM.
    pub fn vm(&self, id: VmId) -> Result<&HostedVm, HvError> {
        self.vms.get(&id).ok_or(HvError::UnknownVm(id))
    }

    /// Mutable access to a hosted VM.
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut HostedVm, HvError> {
        self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))
    }

    /// Creates a fully resident VM (normal creation or full-migration
    /// arrival).
    pub fn create_full(&mut self, vm: Vm, image: GuestMemoryImage) -> Result<(), HvError> {
        self.insert(vm, image, true)
    }

    /// Creates a partial VM from a migrated descriptor: page tables are
    /// present but every entry is absent (§4.2).
    pub fn create_partial(&mut self, vm: Vm, image: GuestMemoryImage) -> Result<(), HvError> {
        self.insert(vm, image, false)
    }

    fn insert(&mut self, vm: Vm, image: GuestMemoryImage, resident: bool) -> Result<(), HvError> {
        if self.vms.contains_key(&vm.id) {
            return Err(HvError::DuplicateVm(vm.id));
        }
        let pages = vm.allocation.pages(PAGE_SIZE);
        let table =
            if resident { PageTable::new_resident(pages) } else { PageTable::new_absent(pages) };
        self.vms.insert(
            vm.id,
            HostedVm {
                vm,
                dirty: DirtyLog::new(pages),
                wss: WorkingSetTracker::new(pages),
                table,
                image,
            },
        );
        Ok(())
    }

    /// Destroys a VM and frees its chunks; returns its control-plane view.
    pub fn destroy(&mut self, id: VmId) -> Result<Vm, HvError> {
        let hosted = self.vms.remove(&id).ok_or(HvError::UnknownVm(id))?;
        self.allocator.free_owner(id.0);
        Ok(hosted.vm)
    }

    /// Routes a guest access. Absent pages pause the vCPU and return
    /// [`GuestAccess::FaultPending`]; memtap must complete the fault via
    /// [`install_fetched`](Hypervisor::install_fetched).
    pub fn guest_access(
        &mut self,
        id: VmId,
        page: PageNum,
        write: bool,
    ) -> Result<GuestAccess, HvError> {
        let hosted = self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))?;
        match hosted.table.touch(page, write) {
            Ok(Access::Hit) => {
                hosted.wss.touch(page);
                if write {
                    hosted.dirty.record(page);
                }
                self.hits.inc();
                Ok(GuestAccess::Hit)
            }
            Ok(Access::Fault) => {
                self.faults.inc();
                Ok(GuestAccess::FaultPending(page))
            }
            Err(_) => Err(HvError::BadPage(id, page)),
        }
    }

    /// Completes a fault: allocates a frame from the chunk allocator and
    /// installs the fetched page, then replays the access.
    pub fn install_fetched(&mut self, id: VmId, page: PageNum, write: bool) -> Result<(), HvError> {
        let frame = self.allocator.alloc_frame(id.0).map_err(|_| HvError::OutOfMemory)?;
        let hosted = self.vms.get_mut(&id).ok_or(HvError::UnknownVm(id))?;
        hosted.table.install(page, frame).map_err(|_| HvError::BadPage(id, page))?;
        hosted.wss.touch(page);
        if write {
            hosted.dirty.record(page);
            hosted.table.touch(page, true).map_err(|_| HvError::BadPage(id, page))?;
        }
        self.telemetry.emit(Event::PageFaultFetched { vm: id.0, page: page.0 });
        Ok(())
    }

    /// Total memory demanded by hosted VMs (full allocation for full VMs,
    /// resident working set for partial VMs).
    pub fn memory_demand(&self) -> ByteSize {
        self.vms.values().map(|h| h.vm.memory_demand()).sum()
    }

    /// Host memory capacity.
    pub fn capacity(&self) -> ByteSize {
        CHUNK_SIZE * self.allocator.total_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_mem::compress::PageMix;
    use oasis_vm::workload::WorkloadClass;

    fn small_vm(id: u32) -> (Vm, GuestMemoryImage) {
        let vm = Vm::new(VmId(id), WorkloadClass::Desktop, ByteSize::mib(64), 1);
        let image = GuestMemoryImage::new(id as u64, PageMix::desktop(), 64 * 256);
        (vm, image)
    }

    #[test]
    fn full_vm_hits_everywhere() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(1);
        hv.create_full(vm, img).unwrap();
        assert_eq!(hv.guest_access(VmId(1), PageNum(100), false).unwrap(), GuestAccess::Hit);
        assert_eq!(hv.vm(VmId(1)).unwrap().wss.unique_pages(), 1);
    }

    #[test]
    fn partial_vm_faults_then_hits() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (mut vm, img) = small_vm(2);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        let id = VmId(2);
        assert_eq!(
            hv.guest_access(id, PageNum(5), false).unwrap(),
            GuestAccess::FaultPending(PageNum(5))
        );
        hv.install_fetched(id, PageNum(5), false).unwrap();
        assert_eq!(hv.guest_access(id, PageNum(5), false).unwrap(), GuestAccess::Hit);
        assert_eq!(hv.vm(id).unwrap().table.present_count(), 1);
    }

    #[test]
    fn writes_feed_dirty_log() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(3);
        hv.create_full(vm, img).unwrap();
        hv.guest_access(VmId(3), PageNum(1), true).unwrap();
        hv.guest_access(VmId(3), PageNum(2), false).unwrap();
        let hosted = hv.vm_mut(VmId(3)).unwrap();
        assert_eq!(hosted.dirty.take_epoch(), vec![PageNum(1)]);
    }

    #[test]
    fn fetched_write_is_dirty() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (mut vm, img) = small_vm(4);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        hv.install_fetched(VmId(4), PageNum(9), true).unwrap();
        let hosted = hv.vm_mut(VmId(4)).unwrap();
        assert_eq!(hosted.dirty.take_epoch(), vec![PageNum(9)]);
    }

    #[test]
    fn duplicate_and_unknown_vm_errors() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(5);
        hv.create_full(vm.clone(), img.clone()).unwrap();
        assert_eq!(hv.create_full(vm, img), Err(HvError::DuplicateVm(VmId(5))));
        assert_eq!(hv.guest_access(VmId(99), PageNum(0), false), Err(HvError::UnknownVm(VmId(99))));
        assert!(hv.destroy(VmId(99)).is_err());
    }

    #[test]
    fn destroy_frees_chunks_for_reuse() {
        let mut hv = Hypervisor::new(ByteSize::mib(2)); // One chunk.
        let (mut vm, img) = small_vm(6);
        vm.make_partial(ByteSize::ZERO);
        hv.create_partial(vm, img).unwrap();
        hv.install_fetched(VmId(6), PageNum(0), false).unwrap();
        // Second VM cannot get a chunk while the first holds it.
        let (mut vm2, img2) = small_vm(7);
        vm2.make_partial(ByteSize::ZERO);
        hv.create_partial(vm2, img2).unwrap();
        assert_eq!(hv.install_fetched(VmId(7), PageNum(0), false), Err(HvError::OutOfMemory));
        hv.destroy(VmId(6)).unwrap();
        assert!(hv.install_fetched(VmId(7), PageNum(0), false).is_ok());
    }

    #[test]
    fn memory_demand_sums_vm_demands() {
        let mut hv = Hypervisor::new(ByteSize::gib(1));
        let (vm1, img1) = small_vm(8);
        let (mut vm2, img2) = small_vm(9);
        vm2.make_partial(ByteSize::mib(10));
        hv.create_full(vm1, img1).unwrap();
        hv.create_partial(vm2, img2).unwrap();
        assert_eq!(hv.memory_demand(), ByteSize::mib(74));
        assert_eq!(hv.vm_count(), 2);
    }

    #[test]
    fn out_of_range_page_rejected() {
        let mut hv = Hypervisor::new(ByteSize::mib(256));
        let (vm, img) = small_vm(10);
        hv.create_full(vm, img).unwrap();
        let beyond = PageNum(64 * 256 + 1);
        assert_eq!(
            hv.guest_access(VmId(10), beyond, false),
            Err(HvError::BadPage(VmId(10), beyond))
        );
    }
}
