//! Meta-paths: ordered sequences of vertex types (Definitions 2–4).

use crate::error::GraphError;
use crate::ids::VertexTypeId;
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A meta-path `P = (T₀ T₁ … T_l)` over a schema's vertex types
/// (Definition 2 of the paper).
///
/// A meta-path of *length* `l` has `l + 1` types and is instantiated by paths
/// of `l` edges. The degenerate single-type path (`l = 0`) is permitted: it
/// instantiates to single vertices and acts as the identity for
/// concatenation.
///
/// The textual form mirrors the paper's query language: type names joined by
/// dots, e.g. `author.paper.venue` for `(A P V)`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MetaPath {
    types: Vec<VertexTypeId>,
}

impl MetaPath {
    /// Build from a non-empty type sequence, checking every consecutive pair
    /// is linked in the schema.
    pub fn new(types: Vec<VertexTypeId>, schema: &Schema) -> Result<Self, GraphError> {
        if types.is_empty() {
            return Err(GraphError::EmptyMetaPath);
        }
        for &t in &types {
            if t.index() >= schema.vertex_type_count() {
                return Err(GraphError::UnknownVertexTypeId(t));
            }
        }
        for (i, w) in types.windows(2).enumerate() {
            if !schema.link_exists(w[0], w[1]) {
                return Err(GraphError::MetaPathBrokenLink {
                    position: i,
                    from: w[0],
                    to: w[1],
                });
            }
        }
        Ok(MetaPath { types })
    }

    /// Parse dotted notation (`"author.paper.venue"`).
    pub fn parse(s: &str, schema: &Schema) -> Result<Self, GraphError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(GraphError::EmptyMetaPath);
        }
        let mut types = Vec::new();
        for part in s.split('.') {
            let part = part.trim();
            let t = schema
                .vertex_type_by_name(part)
                .ok_or_else(|| GraphError::MetaPathUnknownType(part.to_string()))?;
            types.push(t);
        }
        MetaPath::new(types, schema)
    }

    /// The type sequence.
    pub fn types(&self) -> &[VertexTypeId] {
        &self.types
    }

    /// Number of edges an instantiation traverses (`l`); the number of types
    /// is `len() + 1`.
    pub fn len(&self) -> usize {
        self.types.len() - 1
    }

    /// Whether the path is the degenerate single-type path.
    pub fn is_empty(&self) -> bool {
        self.types.len() == 1
    }

    /// First type `T₀` — the type of vertices the path starts from.
    pub fn source_type(&self) -> VertexTypeId {
        self.types[0]
    }

    /// Last type `T_l` — the type of vertices the path reaches.
    pub fn target_type(&self) -> VertexTypeId {
        // Invariant: every constructor rejects empty type sequences
        // (`EmptyMetaPath`), so `types` is never empty.
        #[allow(clippy::expect_used)]
        *self.types.last().expect("meta-path is non-empty")
    }

    /// Reversal `P⁻¹ = (T_l … T₀)` (Definition 3).
    pub fn reversed(&self) -> MetaPath {
        let mut types = self.types.clone();
        types.reverse();
        MetaPath { types }
    }

    /// Concatenation `(P₁ P₂)` (Definition 4): requires
    /// `self.target_type() == other.source_type()`; the shared type appears
    /// once in the result.
    pub fn concat(&self, other: &MetaPath) -> Result<MetaPath, GraphError> {
        if self.target_type() != other.source_type() {
            return Err(GraphError::ConcatTypeMismatch {
                left_end: self.target_type(),
                right_start: other.source_type(),
            });
        }
        let mut types = self.types.clone();
        types.extend_from_slice(&other.types[1..]);
        Ok(MetaPath { types })
    }

    /// The symmetric path `P_sym = (P P⁻¹)` used to compare two vertices of
    /// the source type (Section 5.1).
    pub fn symmetric(&self) -> MetaPath {
        // Invariant: `self.target_type()` equals `reversed().source_type()`
        // by construction, so concatenation cannot mismatch.
        #[allow(clippy::expect_used)]
        self.concat(&self.reversed())
            .expect("P and P⁻¹ always share the pivot type")
    }

    /// Whether the path is symmetric under reversal (palindromic type
    /// sequence), e.g. `(A P A)` or any `P_sym`.
    pub fn is_symmetric(&self) -> bool {
        self.types
            .iter()
            .zip(self.types.iter().rev())
            .all(|(a, b)| a == b)
    }

    /// Split into the decomposition used by the pre-materialization engine
    /// (Section 6.2): maximal length-2 chunks, plus a trailing length-1 hop
    /// for odd-length paths. A length-0 path yields no chunks.
    ///
    /// Each chunk is a sub-path sharing its first type with the previous
    /// chunk's last type.
    pub fn decompose_pairs(&self) -> Vec<MetaPath> {
        self.chunk_types()
            .map(|types| MetaPath {
                types: types.to_vec(),
            })
            .collect()
    }

    /// The type sequences of [`MetaPath::decompose_pairs`]' chunks, borrowed
    /// from this path: nothing is allocated, and a map keyed by `MetaPath`
    /// takes them as lookup keys (see the `Borrow` impl).
    pub fn chunk_types(&self) -> impl Iterator<Item = &[VertexTypeId]> {
        (0..self.len())
            .step_by(2)
            .map(|i| &self.types[i..self.types.len().min(i + 3)])
    }

    /// Render with the schema's type names (`author.paper.venue`).
    pub fn display<'a>(&'a self, schema: &'a Schema) -> MetaPathDisplay<'a> {
        MetaPathDisplay { path: self, schema }
    }
}

/// A `MetaPath` hashes and compares as its type sequence (the derives see
/// one `Vec` field, and a `Vec` hashes as its slice), so a map keyed by
/// `MetaPath` can be probed with a borrowed `&[VertexTypeId]`.
impl std::borrow::Borrow<[VertexTypeId]> for MetaPath {
    fn borrow(&self) -> &[VertexTypeId] {
        &self.types
    }
}

impl fmt::Debug for MetaPath {
    /// Prints `(T0 T1 T2)` — type ids only, since no schema is at hand.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.types.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, ")")
    }
}

/// Display adapter produced by [`MetaPath::display`].
pub struct MetaPathDisplay<'a> {
    path: &'a MetaPath,
    schema: &'a Schema,
}

impl fmt::Display for MetaPathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &t) in self.path.types.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", self.schema.vertex_type_name(t))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::bibliographic_schema;

    fn schema() -> Schema {
        bibliographic_schema()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s = schema();
        let p = MetaPath::parse("author.paper.venue", &s).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.display(&s).to_string(), "author.paper.venue");
        assert_eq!(p.source_type(), s.vertex_type_by_name("author").unwrap());
        assert_eq!(p.target_type(), s.vertex_type_by_name("venue").unwrap());
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let s = schema();
        let p = MetaPath::parse(" author . paper . author ", &s).unwrap();
        assert_eq!(p.display(&s).to_string(), "author.paper.author");
    }

    #[test]
    fn parse_unknown_type() {
        let s = schema();
        assert_eq!(
            MetaPath::parse("author.conference", &s).unwrap_err(),
            GraphError::MetaPathUnknownType("conference".into())
        );
    }

    #[test]
    fn parse_broken_link() {
        let s = schema();
        // author–venue has no direct edge type.
        let err = MetaPath::parse("author.venue", &s).unwrap_err();
        assert!(matches!(
            err,
            GraphError::MetaPathBrokenLink { position: 0, .. }
        ));
    }

    #[test]
    fn parse_empty() {
        let s = schema();
        assert_eq!(
            MetaPath::parse("   ", &s).unwrap_err(),
            GraphError::EmptyMetaPath
        );
    }

    #[test]
    fn single_type_path_is_identity() {
        let s = schema();
        let a = MetaPath::parse("author", &s).unwrap();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        let apv = MetaPath::parse("author.paper.venue", &s).unwrap();
        assert_eq!(a.concat(&apv).unwrap(), apv);
        assert_eq!(a.decompose_pairs().len(), 0);
    }

    #[test]
    fn reversal_definition3() {
        let s = schema();
        let apv = MetaPath::parse("author.paper.venue", &s).unwrap();
        let vpa = apv.reversed();
        assert_eq!(vpa.display(&s).to_string(), "venue.paper.author");
        assert_eq!(vpa.reversed(), apv);
    }

    #[test]
    fn concatenation_definition4() {
        let s = schema();
        let apv = MetaPath::parse("author.paper.venue", &s).unwrap();
        let vpt = MetaPath::parse("venue.paper.term", &s).unwrap();
        let joined = apv.concat(&vpt).unwrap();
        assert_eq!(
            joined.display(&s).to_string(),
            "author.paper.venue.paper.term"
        );
        // Mismatched concat rejected.
        assert!(matches!(
            vpt.concat(&apv),
            Err(GraphError::ConcatTypeMismatch { .. })
        ));
    }

    #[test]
    fn symmetric_path() {
        let s = schema();
        let apv = MetaPath::parse("author.paper.venue", &s).unwrap();
        let sym = apv.symmetric();
        assert_eq!(
            sym.display(&s).to_string(),
            "author.paper.venue.paper.author"
        );
        assert!(sym.is_symmetric());
        assert!(!apv.is_symmetric());
        let apa = MetaPath::parse("author.paper.author", &s).unwrap();
        assert!(apa.is_symmetric());
    }

    #[test]
    fn decompose_even_length() {
        let s = schema();
        let sym = MetaPath::parse("author.paper.venue", &s)
            .unwrap()
            .symmetric();
        let chunks = sym.decompose_pairs();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].display(&s).to_string(), "author.paper.venue");
        assert_eq!(chunks[1].display(&s).to_string(), "venue.paper.author");
    }

    #[test]
    fn decompose_odd_length() {
        let s = schema();
        let p = MetaPath::parse("author.paper.venue.paper", &s).unwrap();
        let chunks = p.decompose_pairs();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[1].len(), 1);
        assert_eq!(chunks[1].display(&s).to_string(), "venue.paper");
    }

    #[test]
    fn borrowed_chunk_types_probe_a_map_keyed_by_path() {
        let s = schema();
        let p = MetaPath::parse("author.paper.venue.paper.term.paper", &s).unwrap();
        let chunks = p.decompose_pairs();
        let map: std::collections::HashMap<MetaPath, usize> =
            chunks.iter().cloned().zip(0..).collect();
        let slots: Vec<_> = p.chunk_types().map(|t| map.get(t).copied()).collect();
        assert_eq!(slots, vec![Some(0), Some(1), Some(2)]);
        assert!(p
            .chunk_types()
            .zip(&chunks)
            .all(|(types, chunk)| types == chunk.types()));
        assert_eq!(map.get(&p.types()[..2]), None);
    }

    #[test]
    fn decompose_reassembles() {
        let s = schema();
        let p = MetaPath::parse("author.paper.venue.paper.term", &s).unwrap();
        let chunks = p.decompose_pairs();
        let rebuilt = chunks
            .into_iter()
            .reduce(|a, b| a.concat(&b).unwrap())
            .unwrap();
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn debug_format() {
        let s = schema();
        let p = MetaPath::parse("author.paper", &s).unwrap();
        assert_eq!(format!("{p:?}"), "(T0 T1)");
    }
}
