//! The 2 MiB chunk frame allocator.
//!
//! Xen's page-fault handling was extended to allocate frames for partial
//! VMs on demand "at the granularity of a chunk consisting of 2 MiB in
//! order to reduce fragmentation of the host's heap" (§4.2). This module
//! models that allocator over a host's physical frame space: each owner
//! (VM) fills its current chunk before a new one is carved out, and all of
//! an owner's chunks are released together when its VM leaves the host.

use std::collections::BTreeMap;

use crate::addr::{MachineFrame, PAGE_SIZE};
use crate::size::ByteSize;

/// Allocation granularity of the host heap: one 2 MiB chunk (§4.2).
pub const CHUNK_SIZE: ByteSize = ByteSize::mib(2);

/// Frames per 2 MiB chunk.
pub const FRAMES_PER_CHUNK: u64 = CHUNK_SIZE.as_bytes() / PAGE_SIZE;

/// Error returned when the host has no free chunks left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "host heap exhausted: no free 2 MiB chunks")
    }
}

impl std::error::Error for OutOfMemory {}

/// Identifier of an allocation owner (one per hosted VM).
pub type OwnerId = u32;

#[derive(Clone, Debug)]
struct OwnerState {
    /// Chunk indices owned, in allocation order.
    chunks: Vec<u64>,
    /// Frames used within the most recent chunk.
    used_in_last: u64,
}

/// A host's chunked physical-frame allocator.
#[derive(Clone, Debug)]
pub struct ChunkAllocator {
    total_chunks: u64,
    free: Vec<u64>,
    owners: BTreeMap<OwnerId, OwnerState>,
}

impl ChunkAllocator {
    /// Creates an allocator over `capacity` bytes of host memory.
    ///
    /// Capacity is rounded down to a whole number of 2 MiB chunks.
    pub fn new(capacity: ByteSize) -> Self {
        let total_chunks = capacity.as_bytes() / (FRAMES_PER_CHUNK * PAGE_SIZE);
        // Free list kept in descending order so allocation pops the lowest
        // chunk index first (deterministic and cache-friendly).
        let free: Vec<u64> = (0..total_chunks).rev().collect();
        ChunkAllocator { total_chunks, free, owners: BTreeMap::new() }
    }

    /// Total chunks managed.
    pub fn total_chunks(&self) -> u64 {
        self.total_chunks
    }

    /// Chunks not yet handed to any owner.
    pub fn free_chunks(&self) -> u64 {
        self.free.len() as u64
    }

    /// Bytes reserved by an owner (whole chunks, not just used frames).
    pub fn reserved_bytes(&self, owner: OwnerId) -> ByteSize {
        let chunks = self.owners.get(&owner).map_or(0, |o| o.chunks.len() as u64);
        ByteSize::bytes(chunks * FRAMES_PER_CHUNK * PAGE_SIZE)
    }

    /// Frames actually used by an owner.
    pub fn used_frames(&self, owner: OwnerId) -> u64 {
        self.owners.get(&owner).map_or(0, |o| {
            if o.chunks.is_empty() {
                0
            } else {
                (o.chunks.len() as u64 - 1) * FRAMES_PER_CHUNK + o.used_in_last
            }
        })
    }

    /// Allocates one frame for `owner`, carving a new chunk if needed.
    pub fn alloc_frame(&mut self, owner: OwnerId) -> Result<MachineFrame, OutOfMemory> {
        let state = self
            .owners
            .entry(owner)
            .or_insert(OwnerState { chunks: Vec::new(), used_in_last: FRAMES_PER_CHUNK });
        if state.used_in_last == FRAMES_PER_CHUNK {
            let chunk = self.free.pop().ok_or(OutOfMemory)?;
            state.chunks.push(chunk);
            state.used_in_last = 0;
        }
        let chunk = *state.chunks.last().expect("chunk pushed above");
        let frame = chunk * FRAMES_PER_CHUNK + state.used_in_last;
        state.used_in_last += 1;
        Ok(MachineFrame(frame))
    }

    /// Releases every chunk owned by `owner` (VM departed the host).
    ///
    /// Returns the number of chunks released.
    pub fn free_owner(&mut self, owner: OwnerId) -> u64 {
        if let Some(state) = self.owners.remove(&owner) {
            let n = state.chunks.len() as u64;
            self.free.extend(state.chunks.into_iter().rev());
            // Keep the free list sorted descending for deterministic reuse.
            self.free.sort_unstable_by(|a, b| b.cmp(a));
            n
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry() {
        assert_eq!(FRAMES_PER_CHUNK, 512);
        let a = ChunkAllocator::new(ByteSize::mib(10));
        assert_eq!(a.total_chunks(), 5);
        assert_eq!(a.free_chunks(), 5);
    }

    #[test]
    fn frames_fill_chunks_sequentially() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        let f0 = a.alloc_frame(1).unwrap();
        let f1 = a.alloc_frame(1).unwrap();
        assert_eq!(f0, MachineFrame(0));
        assert_eq!(f1, MachineFrame(1));
        assert_eq!(a.free_chunks(), 1);
        assert_eq!(a.used_frames(1), 2);
        assert_eq!(a.reserved_bytes(1), ByteSize::mib(2));
    }

    #[test]
    fn second_owner_gets_its_own_chunk() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        a.alloc_frame(1).unwrap();
        let f = a.alloc_frame(2).unwrap();
        assert_eq!(f, MachineFrame(FRAMES_PER_CHUNK));
        assert_eq!(a.free_chunks(), 0);
    }

    #[test]
    fn chunk_overflow_carves_next_chunk() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        for _ in 0..FRAMES_PER_CHUNK {
            a.alloc_frame(1).unwrap();
        }
        assert_eq!(a.reserved_bytes(1), ByteSize::mib(2));
        let f = a.alloc_frame(1).unwrap();
        assert_eq!(f, MachineFrame(FRAMES_PER_CHUNK));
        assert_eq!(a.reserved_bytes(1), ByteSize::mib(4));
        assert_eq!(a.used_frames(1), FRAMES_PER_CHUNK + 1);
    }

    #[test]
    fn exhaustion_errors() {
        let mut a = ChunkAllocator::new(ByteSize::mib(2));
        for _ in 0..FRAMES_PER_CHUNK {
            a.alloc_frame(1).unwrap();
        }
        assert_eq!(a.alloc_frame(2), Err(OutOfMemory));
        assert_eq!(a.alloc_frame(1), Err(OutOfMemory));
    }

    #[test]
    fn free_owner_recycles_chunks() {
        let mut a = ChunkAllocator::new(ByteSize::mib(4));
        a.alloc_frame(1).unwrap();
        a.alloc_frame(2).unwrap();
        assert_eq!(a.free_chunks(), 0);
        assert_eq!(a.free_owner(1), 1);
        assert_eq!(a.free_chunks(), 1);
        assert_eq!(a.used_frames(1), 0);
        // Owner 3 reuses the lowest free chunk (owner 1's old chunk 0).
        let f = a.alloc_frame(3).unwrap();
        assert_eq!(f, MachineFrame(0));
        assert_eq!(a.free_owner(99), 0, "unknown owner frees nothing");
    }
}
