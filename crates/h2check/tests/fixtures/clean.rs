//! Known-good fixture: a hash container read only through an
//! order-free fold. Expected: zero findings.

use std::collections::HashMap;

pub fn total(counts: &HashMap<String, u64>) -> u64 {
    counts.values().sum()
}
