//! Readiness and live-state introspection: the `/healthz` and
//! `/debug/state` payloads.
//!
//! A [`HealthReport`] is a list of named pass/fail checks (engine bound,
//! queue below derived capacity, shutdown barrier not tripped, no SLO
//! breach); the endpoint maps it to `200 ok` / `503 degraded` so load
//! balancers can poll one boolean while operators read the per-check
//! detail. The [`JsonObj`] builder keeps the hand-rolled JSON in
//! `/debug/state` (and the health body) structurally valid without a
//! serialization dependency.

use std::fmt::Write as _;

use super::export::escape_json;

/// One named readiness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCheck {
    /// Check name (e.g. `engine_bound`, `queue_capacity`, `slo`).
    pub name: &'static str,
    /// Whether the check passes.
    pub ok: bool,
    /// Human-readable detail (current values, thresholds).
    pub detail: String,
}

impl HealthCheck {
    /// A check result.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        HealthCheck {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// The readiness surface behind `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// The individual checks, in evaluation order.
    pub checks: Vec<HealthCheck>,
}

impl HealthReport {
    /// A report over `checks`.
    pub fn new(checks: Vec<HealthCheck>) -> Self {
        HealthReport { checks }
    }

    /// Ready iff every check passes.
    pub fn ready(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The JSON body: `{"status": "ok"|"degraded", "checks": [...]}`.
    pub fn render_json(&self) -> String {
        let mut checks = String::new();
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                checks.push(',');
            }
            let _ = write!(
                checks,
                "{{\"name\":\"{}\",\"ok\":{},\"detail\":\"{}\"}}",
                c.name,
                c.ok,
                escape_json(&c.detail)
            );
        }
        format!(
            "{{\"status\":\"{}\",\"checks\":[{}]}}",
            if self.ready() { "ok" } else { "degraded" },
            checks
        )
    }
}

/// A minimal JSON object builder for the hand-rolled introspection
/// payloads (no serialization crates in this build). Values are written
/// in insertion order; keys are escaped.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    pub fn new() -> Self {
        JsonObj::default()
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a numeric field (any integer or float display form that is
    /// valid JSON).
    pub fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds a float field, mapping non-finite values to 0.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() { value } else { 0.0 };
        self.push(key, format!("{v}"))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds a string field (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, format!("\"{}\"", escape_json(value)))
    }

    /// Adds a raw field — `value` must already be valid JSON (a nested
    /// object, array, or pre-rendered number).
    pub fn raw(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.push(key, value.into())
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let inner: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape_json(k), v))
            .collect();
        format!("{{{}}}", inner.join(","))
    }
}

/// Renders a JSON array from already-rendered element strings.
pub fn json_array(elems: impl IntoIterator<Item = String>) -> String {
    let inner: Vec<String> = elems.into_iter().collect();
    format!("[{}]", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ready_iff_all_checks_pass() {
        let ok = HealthReport::new(vec![
            HealthCheck::new("engine_bound", true, "generation 3"),
            HealthCheck::new("queue_capacity", true, "depth 1 < cap 64"),
        ]);
        assert!(ok.ready());
        assert!(ok.render_json().contains("\"status\":\"ok\""));
        let degraded = HealthReport::new(vec![
            HealthCheck::new("engine_bound", true, ""),
            HealthCheck::new("slo", false, "latency breached"),
        ]);
        assert!(!degraded.ready());
        let body = degraded.render_json();
        assert!(body.contains("\"status\":\"degraded\""));
        assert!(body.contains("\"name\":\"slo\",\"ok\":false"));
    }

    #[test]
    fn json_obj_renders_escaped_fields() {
        let mut obj = JsonObj::new();
        obj.num("depth", 3)
            .bool("ready", true)
            .str("policy", "deadline \"shed\"")
            .float("burn", f64::NAN)
            .raw("nested", "{\"a\":1}");
        let out = obj.render();
        assert_eq!(
            out,
            "{\"depth\":3,\"ready\":true,\"policy\":\"deadline \\\"shed\\\"\",\"burn\":0,\"nested\":{\"a\":1}}"
        );
        assert_eq!(json_array(["1".to_string(), "2".to_string()]), "[1,2]");
    }
}
