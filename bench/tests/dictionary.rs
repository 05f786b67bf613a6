//! The dictionary in `src/dict.rs` and `BENCHMARK.json` say the same
//! thing, name by name, and every name fits the contract's alphabet.

use std::collections::BTreeMap;
use wga_ledger::dict;

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Number(f64),
    Text(String),
    List(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_blank(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) {
        self.skip_blank();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "expected '{}' at byte {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_blank();
        self.bytes[self.at]
    }

    fn text(&mut self) -> String {
        self.expect(b'"');
        let start = self.at;
        while self.bytes[self.at] != b'"' {
            assert_ne!(self.bytes[self.at], b'\\', "no escapes in BENCHMARK.json");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).unwrap()
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'"' => Json::Text(self.text()),
            b'[' => {
                self.expect(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.expect(b',');
                    }
                }
                self.expect(b']');
                Json::List(items)
            }
            b'{' => {
                self.expect(b'{');
                let mut fields = BTreeMap::new();
                while self.peek() != b'}' {
                    let key = self.text();
                    self.expect(b':');
                    assert!(fields.insert(key, self.value()).is_none(), "duplicate key");
                    if self.peek() == b',' {
                        self.expect(b',');
                    }
                }
                self.expect(b'}');
                Json::Object(fields)
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'
                    )
                {
                    self.at += 1;
                }
                Json::Number(
                    std::str::from_utf8(&self.bytes[start..self.at])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

impl Json {
    fn field(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields.get(key).unwrap_or_else(|| panic!("no key '{key}'")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::Text(text) => text,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(number) => *number,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value();
    parser.skip_blank();
    assert_eq!(parser.at, text.len(), "trailing bytes after the object");
    value
}

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[test]
fn names_and_units_fit_the_alphabet_and_are_used_once() {
    let mut seen = std::collections::BTreeSet::new();
    for name in dict::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(dict::END_TO_END.iter().map(|m| m.name))
        .chain(dict::PER_LAYER.iter().map(|m| m.name))
    {
        assert!(is_name(name), "bad name '{name}'");
        assert!(seen.insert(name), "'{name}' is used twice");
    }
    for unit in dict::END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(dict::PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(is_unit(unit), "bad unit '{unit}'");
    }
    for workload in &dict::WORKLOADS {
        assert!(
            workload.why.len() <= 200 && !workload.why.contains('\n'),
            "{}: why is one line of at most 200",
            workload.name
        );
    }
}

#[test]
fn the_contract_shape_holds() {
    let json = benchmark_json();
    assert_eq!(
        json.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(json.field("paths").list(), [Json::Text("bench".into())]);
    let command: Vec<&str> = json
        .field("command")
        .list()
        .iter()
        .map(Json::text)
        .collect();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|part| part.len() <= 200 && !part.starts_with('/') && !part.contains(".."))
    );
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"bench/Cargo.toml") && command.contains(&"--offline"));
    let seconds = json.field("run_seconds").number();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let setup = dict::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(setup.unit == "s" && setup.better == dict::Better::Lower);
    assert!(dict::END_TO_END
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound));
}

#[test]
fn workloads_match_benchmark_json_one_to_one() {
    let json = benchmark_json();
    let listed = json.field("workloads").list();
    assert_eq!(listed.len(), dict::WORKLOADS.len());
    for (entry, workload) in listed.iter().zip(&dict::WORKLOADS) {
        assert_eq!(entry.keys(), ["name", "why"]);
        assert_eq!(entry.field("name").text(), workload.name);
        assert_eq!(entry.field("why").text(), workload.why);
    }
    let names: Vec<&str> = dict::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ["near_ext", "far_filter", "many8", "chroms_t2"]);
}

#[test]
fn metrics_match_benchmark_json_one_to_one() {
    let json = benchmark_json();
    let end_to_end = json.field("end_to_end").list();
    assert_eq!(end_to_end.len(), dict::END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&dict::END_TO_END) {
        assert_eq!(entry.keys(), ["better", "bound", "name", "unit"]);
        assert_eq!(entry.field("name").text(), metric.name);
        assert_eq!(entry.field("unit").text(), metric.unit);
        assert_eq!(entry.field("better").text(), metric.better.as_str());
        assert_eq!(
            entry.field("bound").number(),
            metric.bound,
            "{}",
            metric.name
        );
    }
    let names: Vec<&str> = dict::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, ["peak_rss_mb", "setup_s", "matched_bp"]);

    let per_layer = json.field("per_layer").list();
    assert_eq!(per_layer.len(), dict::PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, metric) in per_layer.iter().zip(&dict::PER_LAYER) {
        assert_eq!(entry.keys(), ["better", "name", "unit"]);
        assert_eq!(entry.field("name").text(), metric.name);
        assert_eq!(entry.field("unit").text(), metric.unit);
        assert_eq!(entry.field("better").text(), metric.better.as_str());
    }
}
