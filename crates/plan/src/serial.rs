//! Plan serialization: build offline, load at serve time.
//!
//! The on-disk form is JSON via `ustencil-trace`'s dependency-free writer.
//! Integer arrays (`row_ptr`, `cols`) serialize as plain JSON numbers
//! (exact below 2^53); every floating-point value — `h` and the packed
//! `weights` — is hex-encoded as its IEEE-754 bit pattern (16 lowercase hex
//! digits per `f64`), because a decimal round trip through the JSON number
//! writer is not bit-faithful (e.g. `-0.0` loses its sign bit on the
//! integer fast path). A serialized-then-loaded plan is therefore
//! byte-identical in its weights, which the equivalence property test
//! asserts.

use crate::plan::EvalPlan;
use std::fmt::Write as _;
use std::time::Duration;
use ustencil_core::integrate::MAX_MODES;
use ustencil_core::{Layout, Metrics};
use ustencil_trace::Json;

/// Format tag of the serialized plan schema. `v2` added the layout fields
/// (`layout`, `row_perm`, `col_perm`, `tiles`); `v1` documents are no
/// longer accepted, since plans are cheap to regenerate and none are
/// stored long-term in this repository.
pub const FORMAT_TAG: &str = "ustencil-plan/v2";

fn f64_from_hex(s: &str) -> Result<f64, String> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("invalid f64 hex '{s}'"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| e.to_string())
}

fn get<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing key '{key}'"))
}

fn get_usize(doc: &Json, key: &str) -> Result<usize, String> {
    get(doc, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| format!("'{key}' is not a non-negative integer"))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    get(doc, key)?
        .as_str()
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn u32s_to_json(v: &[u32]) -> Vec<Json> {
    v.iter().map(|&x| Json::Num(x as f64)).collect()
}

fn u32s_from_json(doc: &Json, key: &str) -> Result<Vec<u32>, String> {
    get(doc, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' is not an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .filter(|&x| x <= u32::MAX as u64)
                .map(|x| x as u32)
                .ok_or_else(|| format!("out-of-range '{key}' entry"))
        })
        .collect()
}

/// Checks that `perm` is a permutation of `0..len`.
fn check_perm(perm: &[u32], len: usize, what: &str) -> Result<(), String> {
    if perm.len() != len {
        return Err(format!("{what} has {} entries, expected {len}", perm.len()));
    }
    let mut seen = vec![false; len];
    for &p in perm {
        let slot = seen
            .get_mut(p as usize)
            .ok_or_else(|| format!("{what} entry {p} out of range"))?;
        if std::mem::replace(slot, true) {
            return Err(format!("{what} repeats index {p}"));
        }
    }
    Ok(())
}

impl EvalPlan {
    /// Serializes the plan to a JSON document (format tag
    /// `ustencil-plan/v2`). Build-time observability (wall, spans, metrics) is
    /// deliberately not serialized: a loaded plan reports a zero build
    /// cost, because its build was paid offline.
    pub fn to_json(&self) -> Json {
        let mut weights_hex = String::with_capacity(self.weights.len() * 16);
        for w in &self.weights {
            let _ = write!(weights_hex, "{:016x}", w.to_bits());
        }
        Json::object()
            .set("format", FORMAT_TAG)
            .set("degree", self.degree)
            .set("smoothness", self.smoothness)
            .set("n_modes", self.n_modes)
            .set("n_elements", self.n_elements)
            .set("h", format!("{:016x}", self.h.to_bits()))
            .set(
                "row_ptr",
                self.row_ptr
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect::<Vec<_>>(),
            )
            .set(
                "cols",
                self.cols
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect::<Vec<_>>(),
            )
            .set("weights", weights_hex)
            .set("layout", self.layout.label())
            .set("row_perm", u32s_to_json(&self.row_perm))
            .set("col_perm", u32s_to_json(&self.col_perm))
            .set("tiles", u32s_to_json(&self.tiles))
    }

    /// Serializes to pretty-printed JSON text.
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Loads a plan from JSON text, validating the format tag and every
    /// structural invariant (row-pointer monotonicity, array lengths,
    /// column bounds, mode count within the compiler's mode budget).
    pub fn from_json(text: &str) -> Result<EvalPlan, String> {
        let doc = Json::parse(text)?;
        let format = get_str(&doc, "format")?;
        if format != FORMAT_TAG {
            return Err(format!(
                "unsupported plan format '{format}' (expected '{FORMAT_TAG}')"
            ));
        }
        let degree = get_usize(&doc, "degree")?;
        let smoothness = get_usize(&doc, "smoothness")?;
        let n_modes = get_usize(&doc, "n_modes")?;
        let n_elements = get_usize(&doc, "n_elements")?;
        // The compiler's mode budget bounds every plan the row kernels can
        // run; check it before trusting the degree in any arithmetic.
        let degree_modes = degree
            .checked_add(1)
            .zip(degree.checked_add(2))
            .and_then(|(a, b)| a.checked_mul(b))
            .map(|x| x / 2)
            .filter(|&m| m <= MAX_MODES)
            .ok_or_else(|| format!("degree {degree} exceeds the {MAX_MODES}-mode budget"))?;
        if n_modes != degree_modes {
            return Err(format!(
                "n_modes {n_modes} inconsistent with degree {degree}"
            ));
        }
        let h = f64_from_hex(get_str(&doc, "h")?)?;
        if !(h.is_finite() && h > 0.0) {
            return Err(format!("non-positive kernel scale h = {h}"));
        }

        let row_ptr = get(&doc, "row_ptr")?
            .as_array()
            .ok_or("'row_ptr' is not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or("non-integer row_ptr entry"))
            .collect::<Result<Vec<u64>, _>>()?;
        if row_ptr.first() != Some(&0) {
            return Err("row_ptr must start at 0".to_string());
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("row_ptr must be non-decreasing".to_string());
        }

        let cols = get(&doc, "cols")?
            .as_array()
            .ok_or("'cols' is not an array")?
            .iter()
            .map(|v| {
                v.as_u64()
                    .filter(|&c| c < n_elements as u64)
                    .map(|c| c as u32)
                    .ok_or("out-of-range cols entry")
            })
            .collect::<Result<Vec<u32>, _>>()?;
        if row_ptr.last().copied() != Some(cols.len() as u64) {
            return Err(format!(
                "row_ptr end {:?} does not match {} entries",
                row_ptr.last(),
                cols.len()
            ));
        }

        let weights_hex = get_str(&doc, "weights")?;
        if weights_hex.len() != cols.len() * n_modes * 16 {
            return Err(format!(
                "weights blob has {} hex digits, expected {}",
                weights_hex.len(),
                cols.len() * n_modes * 16
            ));
        }
        let weights = weights_hex
            .as_bytes()
            .chunks(16)
            .map(|chunk| f64_from_hex(std::str::from_utf8(chunk).map_err(|e| e.to_string())?))
            .collect::<Result<Vec<f64>, _>>()?;

        let layout_label = get_str(&doc, "layout")?;
        let layout = Layout::from_label(layout_label)
            .ok_or_else(|| format!("unknown layout '{layout_label}'"))?;
        let row_perm = u32s_from_json(&doc, "row_perm")?;
        let col_perm = u32s_from_json(&doc, "col_perm")?;
        let tiles = u32s_from_json(&doc, "tiles")?;
        let rows = row_ptr.len() - 1;
        if layout.reorders() {
            check_perm(&row_perm, rows, "row_perm")?;
            check_perm(&col_perm, n_elements, "col_perm")?;
        } else if !row_perm.is_empty() || !col_perm.is_empty() {
            return Err("natural layout must not carry permutations".to_string());
        }
        if layout.blocked() {
            if rows > 0
                && (tiles.len() < 2
                    || tiles.first() != Some(&0)
                    || tiles.last().copied() != Some(rows as u32)
                    || tiles.windows(2).any(|w| w[0] >= w[1]))
            {
                return Err("tiles must be a strictly increasing cover of the rows".to_string());
            }
        } else if !tiles.is_empty() {
            return Err(format!("layout '{layout_label}' must not carry tiles"));
        }

        Ok(EvalPlan {
            degree,
            smoothness,
            n_modes,
            n_elements,
            h,
            row_ptr,
            cols,
            weights,
            build_wall: Duration::ZERO,
            build_spans: Vec::new(),
            build_metrics: Metrics::default(),
            layout,
            row_perm,
            col_perm,
            tiles,
        })
    }
}
