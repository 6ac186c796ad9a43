// Fixture: a profile guard passed into a callee escapes its
// function — the callee ends it, and span nesting stops matching the
// call tree.
pub fn step(tel: &Telemetry) {
    let scope = tel.profile("interval");
    advance();
    finish_scope(scope);
}

pub fn wrapped(tel: &Telemetry) {
    let span = tel.profile("day");
    run_day(&span, 7);
}
