// Fixture: unbalanced-span fires on wildcard-bound guards (dropped
// before measuring anything) and on early exits that skip an .end().
pub fn plan(tel: &Telemetry) {
    let _ = tel.profile("manager_plan");
    let _ = tel.profile("planner");
    let scope = tel.profile("fetch");
    if nothing_to_do() {
        return;
    }
    fetch_pages();
    scope.end();
}

pub fn lookup(tel: &Telemetry) -> Option<u64> {
    let span = tel.profile("placement_search");
    let host = candidates().next()?;
    span.end();
    Some(host)
}
