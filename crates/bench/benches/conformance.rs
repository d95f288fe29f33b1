//! Experiment BM99: conformance checking is PTIME for tagged schemas
//! (Definition 2.1, after [BM99]). Sweeps document size against the
//! paper's bibliography schema (tagged: the forced assignment) and against
//! the ingest workload's untagged schema (candidate pruning plus search,
//! whose content models keep that search linear; 500 to 8 000 nodes), and
//! times the data-graph parser over bibliographies of growing size. Each
//! row's time should grow linearly with its parameter.
//!
//! `SSD_BENCH_QUICK=1` cuts the sample count for CI smoke runs; the rows
//! and labels stay the same.

use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::{criterion_group, criterion_main};
use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd_model::parse_data_graph;
use ssd_schema::{conforms, parse_schema};

/// The ingest workload's untagged schema: `item` leads to three types,
/// each told apart by its content.
const UNTAGGED_SCHEMA: &str = "ROOT = [(item->A | item->B)*]; A = [name->S.(item->C)*]; \
                               B = [name->S.val->I]; C = [key->S.(val->I)*]; \
                               S = string; I = int";

fn sample_size() -> usize {
    if std::env::var_os("SSD_BENCH_QUICK").is_some() {
        5
    } else {
        20
    }
}

fn conformance(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let mut g = c.benchmark_group("bm99/conformance_doc_size");
    g.sample_size(sample_size());
    for papers in [10usize, 40, 160, 640] {
        let data = parse_data_graph(&bibliography(papers, 2), &pool).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(data.len()), &papers, |b, _| {
            b.iter(|| conforms(&data, &s).is_some())
        });
    }
    g.finish();
}

/// A document of `items` root items under [`UNTAGGED_SCHEMA`], alternating
/// an `A` item with two `C` children and a `B` item (11 nodes per pair).
fn untagged_doc(items: usize) -> String {
    let mut out = String::from("root = [");
    for i in 0..items {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}item -> i{i}"));
    }
    out.push(']');
    for i in 0..items {
        if i % 2 == 0 {
            out.push_str(&format!(
                ";\ni{i} = [name -> i{i}n, item -> i{i}c0, item -> i{i}c1]; i{i}n = \"n{i}\""
            ));
            for c in 0..2 {
                out.push_str(&format!(
                    "; i{i}c{c} = [key -> i{i}c{c}k, val -> i{i}c{c}v]; \
                     i{i}c{c}k = \"k{c}\"; i{i}c{c}v = {c}"
                ));
            }
        } else {
            out.push_str(&format!(
                ";\ni{i} = [name -> i{i}n, val -> i{i}v]; i{i}n = \"n{i}\"; i{i}v = {i}"
            ));
        }
    }
    out
}

/// Untagged conformance; the parameter is the document's node count.
fn conformance_untagged(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let s = parse_schema(UNTAGGED_SCHEMA, &pool).unwrap();
    let mut g = c.benchmark_group("bm99/conformance_untagged");
    g.sample_size(sample_size());
    for items in [90usize, 182, 364, 728, 1454] {
        let data = parse_data_graph(&untagged_doc(items), &pool).unwrap();
        assert!(conforms(&data, &s).is_some(), "the document conforms");
        g.bench_with_input(BenchmarkId::from_parameter(data.len()), &items, |b, _| {
            b.iter(|| conforms(&data, &s).is_some())
        });
    }
    g.finish();
}

/// The data-graph parser; the parameter is the document size in bytes.
fn parse_doc_size(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let mut g = c.benchmark_group("model/parse_doc_size");
    g.sample_size(sample_size());
    for papers in [10usize, 40, 160, 640] {
        let text = bibliography(papers, 2);
        g.bench_with_input(BenchmarkId::from_parameter(text.len()), &text, |b, text| {
            b.iter(|| parse_data_graph(text, &pool).unwrap().len())
        });
    }
    g.finish();
}

criterion_group!(benches, conformance, conformance_untagged, parse_doc_size);
criterion_main!(benches);
