//! Host substrate: hypervisor model, host agent, memtap and the
//! low-power memory server.
//!
//! One Oasis host runs a hypervisor with extended page-fault handling, a
//! user-level host agent in dom0, one memtap process per partial VM, and
//! (on home hosts) a low-power memory server sharing a SAS drive (§4).
//! This crate models each of those components functionally:
//!
//! * [`guest`] — deterministic guest memory images with per-page content
//!   classes and codec-derived compressed sizes.
//! * [`hypervisor`] — VM hosting, absent-entry page faults, on-demand
//!   2 MiB chunk frame allocation (§4.2).
//! * [`memserver`] — the memory server of §4.3: drive attach/detach
//!   protocol, compressed + differential upload, page serving while the
//!   host sleeps.
//! * [`memtap`] — the per-VM fault-servicing process: request, transfer,
//!   decompress, resume vCPU (§4.2).
//! * [`agent`] — the dom0 host agent: VM lifecycle, ACPI power operations
//!   and xenstat-style statistics reporting (§4.2).
//! * [`sleep_sim`] — the event-driven §2 experiment: how much S3 sleep a
//!   home host gets when it must wake for every page request (Figure 2's
//!   motivation for the low-power memory server).

#![warn(missing_docs)]

pub mod agent;
pub mod guest;
pub mod hypervisor;
pub mod memserver;
pub mod memtap;
pub mod sleep_sim;

pub use agent::{HostAgent, HostStats};
pub use guest::GuestMemoryImage;
pub use hypervisor::Hypervisor;
pub use memserver::MemoryServer;
pub use memtap::Memtap;
