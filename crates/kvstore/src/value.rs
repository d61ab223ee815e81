//! Value types stored at each key.
//!
//! The string key space holds Redis's LIST and HASH types. Neither the
//! dirty table nor the object headers is a `Value`: they live in the
//! store's typed dirty log and header table.

use bytes::Bytes;
use std::collections::{HashMap, VecDeque};

/// A value held at one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Double-ended list (Redis LIST).
    List(VecDeque<Bytes>),
    /// Field → value map (Redis HASH).
    Hash(HashMap<String, Bytes>),
}

impl Value {
    /// Human-readable type name (matches Redis's `TYPE` command output).
    pub fn type_name(&self) -> &'static str {
        match self {
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
        assert_eq!(Value::List(VecDeque::new()).type_name(), "list");
        assert_eq!(Value::Hash(HashMap::new()).type_name(), "hash");
    }
}
