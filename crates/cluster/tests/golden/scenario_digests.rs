// The pinned scenario digests: `(scenario, seed, digest bytes)`.
//
// One table, two readers: `crates/cluster/tests/scenario_golden.rs`
// (every seed) and the root `tests/scenario_goldens.rs` (seed 1, so the
// tier-1 `cargo test` guards them too) both `include!` this file.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &str)] = &[
    // GENERATED — run scenario_golden's `print_golden_digests` to refresh.
    ("mixed_fleet", 1, "scenario=mixed_fleet seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.402641 total_kwh=10.032958 savings=34.86% sla_violations=10 migration_bytes=3258287414156 faults=0 recoveries=0 reboots=0 gen[table1]=9717612900mj/3hosts gen[lowpower]=15448489100mj/3hosts gen[legacy]=10952546980mj/2hosts"),
    ("mixed_fleet", 2, "scenario=mixed_fleet seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.381433 total_kwh=10.009696 savings=34.92% sla_violations=15 migration_bytes=3015148096701 faults=0 recoveries=0 reboots=0 gen[table1]=9725185980mj/3hosts gen[lowpower]=15361616950mj/3hosts gen[legacy]=10948101300mj/2hosts"),
    ("mixed_fleet", 3, "scenario=mixed_fleet seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.413427 total_kwh=10.025270 savings=34.96% sla_violations=12 migration_bytes=2951429026818 faults=0 recoveries=0 reboots=0 gen[table1]=9712344380mj/3hosts gen[lowpower]=15442445650mj/3hosts gen[legacy]=10936182520mj/2hosts"),
    ("green_refresh", 1, "scenario=green_refresh seed=1 racks=1 hosts=8 vms=60 baseline_kwh=12.450236 total_kwh=9.547648 savings=23.31% sla_violations=10 migration_bytes=3268116618585 faults=0 recoveries=0 reboots=0 gen[table1]=14597344230mj/4hosts gen[lowpower]=19774189190mj/4hosts"),
    ("green_refresh", 2, "scenario=green_refresh seed=2 racks=1 hosts=8 vms=60 baseline_kwh=12.414196 total_kwh=9.514956 savings=23.35% sla_violations=15 migration_bytes=3025338616770 faults=0 recoveries=0 reboots=0 gen[table1]=14548678030mj/4hosts gen[lowpower]=19705164940mj/4hosts"),
    ("green_refresh", 3, "scenario=green_refresh seed=3 racks=1 hosts=8 vms=60 baseline_kwh=12.442195 total_kwh=9.537266 savings=23.35% sla_violations=12 migration_bytes=2958502245421 faults=0 recoveries=0 reboots=0 gen[table1]=14557535270mj/4hosts gen[lowpower]=19776622740mj/4hosts"),
    ("flash_crowd", 1, "scenario=flash_crowd seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.309866 total_kwh=11.170306 savings=27.04% sla_violations=30 migration_bytes=3109398549670 faults=0 recoveries=0 reboots=0 gen[uniform]=40213100500mj/8hosts"),
    ("flash_crowd", 2, "scenario=flash_crowd seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.286215 total_kwh=11.056027 savings=27.67% sla_violations=42 migration_bytes=3121587525602 faults=0 recoveries=0 reboots=0 gen[uniform]=39801697460mj/8hosts"),
    ("flash_crowd", 3, "scenario=flash_crowd seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.303619 total_kwh=11.073525 savings=27.64% sla_violations=36 migration_bytes=2909566987140 faults=0 recoveries=0 reboots=0 gen[uniform]=39864688940mj/8hosts"),
    ("regional_outage", 1, "scenario=regional_outage seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.222252 total_kwh=10.885025 savings=28.49% sla_violations=10 migration_bytes=3136188486863 faults=4 recoveries=12 reboots=0 gen[uniform]=39186089860mj/8hosts"),
    ("regional_outage", 2, "scenario=regional_outage seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.191610 total_kwh=10.846141 savings=28.60% sla_violations=13 migration_bytes=2964836202949 faults=4 recoveries=12 reboots=0 gen[uniform]=39046109300mj/8hosts"),
    ("regional_outage", 3, "scenario=regional_outage seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.225376 total_kwh=10.874127 savings=28.58% sla_violations=11 migration_bytes=2851002548275 faults=4 recoveries=13 reboots=0 gen[uniform]=39146857480mj/8hosts"),
    ("patch_window", 1, "scenario=patch_window seed=1 racks=1 hosts=8 vms=60 baseline_kwh=15.222252 total_kwh=11.079829 savings=27.21% sla_violations=12 migration_bytes=3258287414156 faults=0 recoveries=0 reboots=8 gen[uniform]=39887383580mj/8hosts"),
    ("patch_window", 2, "scenario=patch_window seed=2 racks=1 hosts=8 vms=60 baseline_kwh=15.191610 total_kwh=11.037259 savings=27.35% sla_violations=17 migration_bytes=3015148096701 faults=0 recoveries=0 reboots=8 gen[uniform]=39734133020mj/8hosts"),
    ("patch_window", 3, "scenario=patch_window seed=3 racks=1 hosts=8 vms=60 baseline_kwh=15.225376 total_kwh=11.067742 savings=27.31% sla_violations=13 migration_bytes=2951429026818 faults=0 recoveries=0 reboots=8 gen[uniform]=39843870320mj/8hosts"),
    ("follow_the_sun", 1, "scenario=follow_the_sun seed=1 racks=3 hosts=24 vms=180 baseline_kwh=45.690409 total_kwh=33.178065 savings=27.39% sla_violations=32 migration_bytes=9287754240532 faults=0 recoveries=0 reboots=0 gen[uniform]=119441034640mj/24hosts"),
    ("follow_the_sun", 2, "scenario=follow_the_sun seed=2 racks=3 hosts=24 vms=180 baseline_kwh=45.588366 total_kwh=33.067955 savings=27.46% sla_violations=33 migration_bytes=9098018826994 faults=0 recoveries=0 reboots=0 gen[uniform]=119044638840mj/24hosts"),
    ("follow_the_sun", 3, "scenario=follow_the_sun seed=3 racks=3 hosts=24 vms=180 baseline_kwh=45.654411 total_kwh=33.133680 savings=27.43% sla_violations=34 migration_bytes=9095954683557 faults=0 recoveries=0 reboots=0 gen[uniform]=119281248560mj/24hosts"),
];
