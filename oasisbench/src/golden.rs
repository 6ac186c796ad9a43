//! Pinned digests for the canonical seeds.
//!
//! The scenario digests are the ones `crates/cluster/tests/scenario_golden.rs`
//! locks for seeds 1–3. The paper, lab and fleet digests were printed by
//! `oasisbench --print-golden` from the simulator they were pinned
//! against; rerun it and paste its output here only after an intentional
//! behaviour change.

/// `(scenario, seed, digest)`, equal to the scenario golden suite.
#[rustfmt::skip]
pub const SCENARIOS: &[(&str, u64, &str)] = &[
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

/// `(task key, digest)` of the §5.1 Figure 8 grid at seed 1.
#[rustfmt::skip]
pub const PAPER: &[(&str, &str)] = &[
    ("paper/OnlyPartial/2/1", "OnlyPartial    weekday  homes=30  cons=2   vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/2/1", "Default        weekday  homes=30  cons=2   vms=900  savings=   9.3% baseline=81.1kWh actual=73.5kWh full=1021 partial=5579 exch=0 mj=264745613340 decisions=7663"),
    ("paper/FulltoPartial/2/1", "FulltoPartial  weekday  homes=30  cons=2   vms=900  savings=  17.4% baseline=81.1kWh actual=67.0kWh full=1996 partial=7844 exch=2043 mj=241100359500 decisions=14237"),
    ("paper/NewHome/2/1", "NewHome        weekday  homes=30  cons=2   vms=900  savings=  24.8% baseline=81.1kWh actual=61.0kWh full=523 partial=2797 exch=2057 mj=219492392320 decisions=8091"),
    ("paper/OnlyPartial/4/1", "OnlyPartial    weekday  homes=30  cons=4   vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/4/1", "Default        weekday  homes=30  cons=4   vms=900  savings=  13.0% baseline=81.1kWh actual=70.6kWh full=1327 partial=6593 exch=0 mj=254094797680 decisions=9334"),
    ("paper/FulltoPartial/4/1", "FulltoPartial  weekday  homes=30  cons=4   vms=900  savings=  20.4% baseline=81.1kWh actual=64.6kWh full=3607 partial=9999 exch=3542 mj=232561732602 decisions=21039"),
    ("paper/NewHome/4/1", "NewHome        weekday  homes=30  cons=4   vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
    ("paper/OnlyPartial/6/1", "OnlyPartial    weekday  homes=30  cons=6   vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/6/1", "Default        weekday  homes=30  cons=6   vms=900  savings=  14.0% baseline=81.1kWh actual=69.8kWh full=1578 partial=7242 exch=0 mj=251235361118 decisions=10463"),
    ("paper/FulltoPartial/6/1", "FulltoPartial  weekday  homes=30  cons=6   vms=900  savings=  21.0% baseline=81.1kWh actual=64.1kWh full=4173 partial=11144 exch=4107 mj=230830618268 decisions=23880"),
    ("paper/NewHome/6/1", "NewHome        weekday  homes=30  cons=6   vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
    ("paper/OnlyPartial/8/1", "OnlyPartial    weekday  homes=30  cons=8   vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/8/1", "Default        weekday  homes=30  cons=8   vms=900  savings=  14.1% baseline=81.1kWh actual=69.7kWh full=2237 partial=8648 exch=0 mj=250875361506 decisions=12997"),
    ("paper/FulltoPartial/8/1", "FulltoPartial  weekday  homes=30  cons=8   vms=900  savings=  21.0% baseline=81.1kWh actual=64.1kWh full=4173 partial=11144 exch=4107 mj=230830618268 decisions=23880"),
    ("paper/NewHome/8/1", "NewHome        weekday  homes=30  cons=8   vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
    ("paper/OnlyPartial/10/1", "OnlyPartial    weekday  homes=30  cons=10  vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/10/1", "Default        weekday  homes=30  cons=10  vms=900  savings=  14.4% baseline=81.1kWh actual=69.4kWh full=2466 partial=9049 exch=0 mj=249888199372 decisions=13717"),
    ("paper/FulltoPartial/10/1", "FulltoPartial  weekday  homes=30  cons=10  vms=900  savings=  21.0% baseline=81.1kWh actual=64.1kWh full=4173 partial=11144 exch=4107 mj=230830618268 decisions=23880"),
    ("paper/NewHome/10/1", "NewHome        weekday  homes=30  cons=10  vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
    ("paper/OnlyPartial/12/1", "OnlyPartial    weekday  homes=30  cons=12  vms=900  savings=   3.9% baseline=81.1kWh actual=78.0kWh full=0 partial=4200 exch=0 mj=280686607740 decisions=4334"),
    ("paper/Default/12/1", "Default        weekday  homes=30  cons=12  vms=900  savings=  14.5% baseline=81.1kWh actual=69.3kWh full=2468 partial=8987 exch=0 mj=249567671122 decisions=13706"),
    ("paper/FulltoPartial/12/1", "FulltoPartial  weekday  homes=30  cons=12  vms=900  savings=  21.0% baseline=81.1kWh actual=64.1kWh full=4173 partial=11144 exch=4107 mj=230830618268 decisions=23880"),
    ("paper/NewHome/12/1", "NewHome        weekday  homes=30  cons=12  vms=900  savings=  25.2% baseline=81.1kWh actual=60.7kWh full=973 partial=3358 exch=3063 mj=218385367810 decisions=11126"),
];

/// `(task key, digest)` of the lab cycle at seed 1.
#[rustfmt::skip]
pub const LAB: &[(&str, &str)] = &[
    ("lab/1", "precopy=42.986874s partial1=15.569978s upload1=10.367145s uploaded1=601200 descriptor=16777216B faults=25009 fetched=56849276B reintegration=3.480286s reintegrated=162332672B partial2=7.115631s upload2=1.912798s uploaded2=112548"),
];

/// `(task key, digest)` of the `datacenter_day` fleet at seed 1.
#[rustfmt::skip]
pub const FLEET: &[(&str, &str)] = &[
    ("fleet/500/1", "racks=500 hosts=2500 vms=20000 baseline_kwh=5073.514652 total_kwh=4463.733484 mj=16069440542870 migrations=180888 grants=1140 rebalance_bytes=7344394076160 network_bytes=899913014863516 sla_violations=31"),
];
