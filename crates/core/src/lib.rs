//! The Oasis cluster manager — the paper's primary contribution (§3).
//!
//! The manager owns four decisions (§3.1): **when** to migrate (periodic
//! planning intervals, only when consolidation saves energy), **how** to
//! migrate (partial migration for idle VMs, pre-copy full migration for
//! active VMs), **where** to migrate (greedy vacate queue sorted by memory
//! demand, random viable destination), and **when hosts sleep** (a compute
//! host sleeps once all its VMs are gone; consolidation hosts sleep by
//! default and wake only to accommodate incoming VMs).
//!
//! * [`view`] — immutable cluster snapshots the planner works over.
//! * [`policy`] — the policy family of §3.2 (`OnlyPartial`, `Default`,
//!   `FulltoPartial`, `NewHome`) plus two baselines (`AlwaysOn`,
//!   `FullOnly`).
//! * [`placement`] — the greedy vacate planner and destination selection.
//! * [`manager`] — the cluster manager façade that ties them together.
//! * [`rebalance`] — inter-rack capacity rebalancing for the
//!   datacenter tier's epoch-barrier planner.

#![warn(missing_docs)]

pub mod manager;
pub mod placement;
pub mod policy;
pub mod rebalance;
pub mod view;

pub use manager::ClusterManager;
pub use placement::PlacementStrategy;
pub use policy::{ActivationDecision, PlannedAction, PolicyKind};
pub use rebalance::{plan_rebalance, CapacityGrant, RackLoad};
pub use view::{ClusterView, HostRole, HostView, ResidencyIndex, VmView};
