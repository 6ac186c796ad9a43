//! Benches for the page-fault servicing path: page table touch, chunk-
//! allocator frame grab, the full hypervisor fault+install, and the
//! memory server's image upload and page serving.

use oasis_bench::timing::{bench, bench_elements};
use oasis_host::guest::GuestMemoryImage;
use oasis_host::hypervisor::Hypervisor;
use oasis_host::MemoryServer;
use oasis_mem::chunk::ChunkAllocator;
use oasis_mem::compress::PageMix;
use oasis_mem::page_table::PageTable;
use oasis_mem::{ByteSize, MachineFrame, PageNum};
use oasis_power::MemoryServerProfile;
use oasis_vm::workload::WorkloadClass;
use oasis_vm::{Vm, VmId};
use std::hint::black_box;

fn main() {
    {
        let mut pt = PageTable::new_resident(1_048_576);
        let mut i = 0u64;
        bench_elements("page_table/touch_hit", 1, || {
            i = (i + 7_919) % 1_048_576;
            black_box(pt.touch(PageNum(i), i.is_multiple_of(3)).expect("in range"));
        });
    }
    {
        let mut pt = PageTable::new_absent(1_048_576);
        let mut i = 0u64;
        bench_elements("page_table/fault_install_evict", 1, || {
            i = (i + 7_919) % 1_048_576;
            pt.touch(PageNum(i), false).expect("in range");
            pt.install(PageNum(i), MachineFrame(i)).expect("absent");
            pt.evict(PageNum(i)).expect("present");
        });
    }

    bench("chunk_allocator/alloc_free_cycle", || {
        let mut a = ChunkAllocator::new(ByteSize::gib(1));
        for owner in 0..8u32 {
            for _ in 0..1_000 {
                a.alloc_frame(owner).expect("capacity");
            }
        }
        for owner in 0..8u32 {
            a.free_owner(owner);
        }
        black_box(a.free_chunks());
    });

    {
        let mut hv = Hypervisor::new(ByteSize::gib(8));
        let mut vm = Vm::new(VmId(1), WorkloadClass::Desktop, ByteSize::gib(4), 1);
        vm.make_partial(ByteSize::ZERO);
        let image = GuestMemoryImage::new(1, PageMix::desktop(), 1_048_576);
        hv.create_partial(vm, image).expect("fresh hypervisor");
        let mut i = 0u64;
        bench("hypervisor/fault_and_install", || {
            i = (i + 7_919) % 1_048_576;
            let page = PageNum(i);
            if !hv.vm(VmId(1)).expect("hosted").table.is_present(page) {
                hv.guest_access(VmId(1), page, false).expect("in range");
                hv.install_fetched(VmId(1), page, false).expect("install");
            } else {
                hv.guest_access(VmId(1), page, true).expect("in range");
            }
        });
    }

    {
        // The §4.4 lab's first upload: its 601,200 touched pages, in
        // ascending pfn order, into a fresh server's empty image.
        let image = GuestMemoryImage::new(1, PageMix::desktop(), 1_048_576);
        let batch: Vec<(PageNum, ByteSize)> =
            (0..601_200).map(|i| (PageNum(i), image.compressed_size(PageNum(i)))).collect();
        let profile = MemoryServerProfile::prototype();
        bench_elements("memserver/upload_first", batch.len() as u64, || {
            let mut ms = MemoryServer::new(profile);
            black_box(ms.upload(VmId(1), &batch, false).expect("drive at host"));
        });

        let mut ms = MemoryServer::new(profile);
        ms.upload(VmId(1), &batch, false).expect("drive at host");
        ms.handoff_to_server().expect("drive at host");
        let mut i = 0u64;
        bench_elements("memserver/serve_page", 1, || {
            i = (i + 7_919) % 601_200;
            black_box(ms.serve_page(VmId(1), PageNum(i)).expect("stored"));
        });
    }
}
