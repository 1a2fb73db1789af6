//! D013 positive fixture: every schema-drift shape — a typo'd tag
//! constant, an embedded journal tag, a bench unit and an instrument
//! name that all bypass the canonical vocabulary in `dynawave_obs::schema`.

pub const TAG: &str = "dynawave-observ";

pub fn journal_header() -> String {
    format!("{{\"schema\":\"dynawave-campaign v2\",\"run\":1}}")
}

pub fn report(elems: usize) -> String {
    dynawave_obs::bench_json_line_with_unit("bench.fixture", "furlongs", 10, 9, 12, 100, elems)
}

pub fn trace() {
    dynawave_obs::span("simulator.run");
}
