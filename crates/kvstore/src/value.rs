//! Value types stored at each key.
//!
//! The dirty table only needs Redis's LIST type (§IV uses RPUSH, LRANGE
//! and LPOP), but a credible store also carries STRING and HASH so other
//! components (counters, ad-hoc maps) can share it. Object headers are
//! not a `Value`: they live in the store's typed header table.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// A value held at one key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Value {
    /// Binary-safe string.
    Str(Bytes),
    /// Double-ended list (Redis LIST).
    List(VecDeque<Bytes>),
    /// Field → value map (Redis HASH).
    Hash(HashMap<String, Bytes>),
}

impl Value {
    /// Human-readable type name (matches Redis's `TYPE` command output).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Hash(_) => "hash",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Str(Bytes::new()).type_name(), "string");
        assert_eq!(Value::List(VecDeque::new()).type_name(), "list");
        assert_eq!(Value::Hash(HashMap::new()).type_name(), "hash");
    }
}
