//! Layer-2/3 source lints: token-level checks over workspace `.rs`
//! files.

pub mod atomics;
pub mod detiter;
pub mod lockorder;

use crate::lexer::SourceFile;

/// Resolves the receiver name of a method chain, walking backwards from
/// token `k` (the token just before the `.` of the call). Trailing
/// index `[…]` and call `(…)` groups are skipped, so
/// `self.buckets[bucket]` and `self.slots[frame_slot(kind)]` both
/// attribute to the field being subscripted.
pub(crate) fn chain_receiver(sf: &SourceFile, mut k: usize) -> Option<String> {
    while sf.punct_at(k, ']') || sf.punct_at(k, ')') {
        let (close, open) = if sf.punct_at(k, ']') {
            (']', '[')
        } else {
            (')', '(')
        };
        let mut depth = 0i32;
        loop {
            if sf.punct_at(k, close) {
                depth += 1;
            } else if sf.punct_at(k, open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    sf.ident_at(k).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn receiver_before_dot(src: &str, method: &str) -> Option<String> {
        let sf = lex(src);
        for i in 0..sf.tokens.len() {
            if sf.ident_at(i) == Some(method) && i >= 2 && sf.punct_at(i - 1, '.') {
                return chain_receiver(&sf, i - 2);
            }
        }
        None
    }

    #[test]
    fn resolves_plain_fields_and_index_groups() {
        assert_eq!(
            receiver_before_dot("m.lookups.fetch_add(1, o);", "fetch_add").as_deref(),
            Some("lookups")
        );
        assert_eq!(
            receiver_before_dot("self.buckets[bucket].fetch_add(1, o);", "fetch_add").as_deref(),
            Some("buckets")
        );
        assert_eq!(
            receiver_before_dot("self.slots[frame_slot(kind)].fetch_add(1, o);", "fetch_add")
                .as_deref(),
            Some("slots")
        );
    }
}
