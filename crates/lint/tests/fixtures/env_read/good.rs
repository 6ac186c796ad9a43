// Fixture: configuration flows through explicit parameters; the decision
// path never consults the ambient environment.
pub fn planner_from_config(cfg: &SimConfig) -> u32 {
    cfg.planner_level
}

pub fn trace_enabled(cfg: &SimConfig) -> bool {
    cfg.trace
}
