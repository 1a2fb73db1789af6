//! D013 suppression fixture: audited allows for deliberate off-schema
//! strings (e.g. fixtures that themselves test the validator).

pub const TAG: &str = "dynawave-observ"; // dynalint:allow(D013) -- negative-test input for obs_validate

pub fn report(elems: usize) -> String {
    // dynalint:allow(D013) -- exercises obs_validate's unknown-unit rejection path
    dynawave_obs::bench_json_line_with_unit("bench.fixture", "furlongs", 10, 9, 12, 100, elems)
}
