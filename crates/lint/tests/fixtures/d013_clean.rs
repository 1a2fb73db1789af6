//! D013 negative fixture: the same shapes speaking the canonical
//! vocabulary, plus near-miss strings that must not be mistaken for tags.

pub const TAG: &str = "dynawave-obs";

pub fn journal_header() -> String {
    format!("{{\"schema\":\"dynawave-campaign v1\",\"run\":1}}")
}

pub fn report(elems: usize) -> String {
    dynawave_obs::bench_json_line_with_unit("bench.fixture", "ratio_x1000", 10, 9, 12, 100, elems)
}

pub fn trace() {
    dynawave_obs::span("sim.fixture_run");
}

pub fn prose() -> &'static str {
    // No hyphenated base word: not a tag, just a sentence.
    "the dynawave toolchain emits schema-tagged lines"
}
