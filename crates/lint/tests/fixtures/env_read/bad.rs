// Fixture: ambient environment reads in a decision-path crate make runs
// depend on invisible state.
pub fn planner_from_ambient() -> u32 {
    match std::env::var("OASIS_PLANNER") {
        Ok(v) => v.len() as u32,
        Err(_) => 0,
    }
}

pub fn trace_enabled() -> bool {
    std::env::var_os("OASIS_TRACE").is_some()
}
