//! The type system and relation schema of the synthetic world.
//!
//! Mirrors the flavor of Freebase domains used by the paper's tasks: a
//! two-level type hierarchy (coarse domains with fine-grained subtypes,
//! e.g. `person` / `pro_athlete` / `actor`) and typed binary relations
//! with several plausible header spellings each (so header-matching
//! baselines like H2H/H2V are non-trivial).

use serde::{Deserialize, Serialize};

/// Index into the schema's type list ([`Schema::standard`]).
pub type TypeId = usize;
/// Index into the schema's relation list ([`Schema::standard`]).
pub type RelationId = usize;

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeDef {
    /// Type name (Freebase-style snake case).
    pub name: String,
    /// Parent coarse type, if this is a fine-grained type.
    pub parent: Option<TypeId>,
    /// Which name-generation style entities of this type use.
    pub name_kind: NameKind,
}

/// Name-generation style for a type (see `names.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NameKind {
    /// First + last personal names.
    Person,
    /// `"The <Adjective> <Noun>"` work titles.
    Work,
    /// Compound place names.
    Place,
    /// `"<Place> <Mascot>"` team names.
    Team,
    /// `"<Noun> Award for <Category>"`.
    Award,
    /// Single-word names (languages, genres).
    Word,
    /// `"<ordinal> <event>"` editions ("15th national film awards").
    Edition,
}

/// A typed binary relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationDef {
    /// Relation name (Freebase-style).
    pub name: String,
    /// Required subject type (fine or coarse).
    pub subject_type: TypeId,
    /// Required object type (fine or coarse).
    pub object_type: TypeId,
    /// Plausible column-header spellings for this relation.
    pub headers: Vec<String>,
    /// Functional relations have exactly one object per subject.
    pub functional: bool,
}

/// The fixed schema: types and relations of the synthetic world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Schema {
    /// All types; coarse types precede their subtypes.
    pub types: Vec<TypeDef>,
    /// All relations.
    pub relations: Vec<RelationDef>,
}

macro_rules! strvec {
    ($($s:expr),* $(,)?) => { vec![$($s.to_string()),*] };
}

impl Schema {
    /// Build the standard schema (deterministic; no RNG involved).
    pub fn standard() -> Self {
        let mut types: Vec<TypeDef> = Vec::new();
        let mut add_type = |name: &str, parent: Option<TypeId>, kind: NameKind| -> TypeId {
            types.push(TypeDef { name: name.to_string(), parent, name_kind: kind });
            types.len() - 1
        };

        let person = add_type("person", None, NameKind::Person);
        let pro_athlete = add_type("pro_athlete", Some(person), NameKind::Person);
        let actor = add_type("actor", Some(person), NameKind::Person);
        let director = add_type("director", Some(person), NameKind::Person);
        let musician = add_type("musician", Some(person), NameKind::Person);

        let location = add_type("location", None, NameKind::Place);
        let citytown = add_type("citytown", Some(location), NameKind::Place);
        let country = add_type("country", Some(location), NameKind::Place);

        let organization = add_type("organization", None, NameKind::Team);
        let sports_team = add_type("sports_team", Some(organization), NameKind::Team);
        let record_label = add_type("record_label", Some(organization), NameKind::Team);

        let work = add_type("creative_work", None, NameKind::Work);
        let film = add_type("film", Some(work), NameKind::Work);
        let album = add_type("album", Some(work), NameKind::Work);
        let tv_series = add_type("tv_series", Some(work), NameKind::Work);

        let award = add_type("award", None, NameKind::Award);
        let award_edition = add_type("award_edition", None, NameKind::Edition);
        let language = add_type("language", None, NameKind::Word);

        let relations = vec![
            RelationDef {
                name: "film.directed_by".into(),
                subject_type: film,
                object_type: director,
                headers: strvec!["director", "directed by", "direction"],
                functional: true,
            },
            RelationDef {
                name: "film.starring".into(),
                subject_type: film,
                object_type: actor,
                headers: strvec!["starring", "lead actor", "cast"],
                functional: false,
            },
            RelationDef {
                name: "film.language".into(),
                subject_type: film,
                object_type: language,
                headers: strvec!["language", "original language"],
                functional: false,
            },
            RelationDef {
                name: "film.country".into(),
                subject_type: film,
                object_type: country,
                headers: strvec!["country", "country of origin"],
                functional: true,
            },
            RelationDef {
                name: "album.by_artist".into(),
                subject_type: album,
                object_type: musician,
                headers: strvec!["artist", "performer", "musician"],
                functional: true,
            },
            RelationDef {
                name: "album.label".into(),
                subject_type: album,
                object_type: record_label,
                headers: strvec!["label", "record label"],
                functional: false,
            },
            RelationDef {
                name: "athlete.team".into(),
                subject_type: pro_athlete,
                object_type: sports_team,
                headers: strvec!["team", "club", "moving to"],
                functional: false,
            },
            RelationDef {
                name: "person.birthplace".into(),
                subject_type: person,
                object_type: citytown,
                headers: strvec!["birthplace", "born in", "place of birth"],
                functional: true,
            },
            RelationDef {
                name: "person.nationality".into(),
                subject_type: person,
                object_type: country,
                headers: strvec!["nationality", "country"],
                functional: true,
            },
            RelationDef {
                name: "team.home_city".into(),
                subject_type: sports_team,
                object_type: citytown,
                headers: strvec!["city", "home city", "location"],
                functional: true,
            },
            RelationDef {
                name: "city.in_country".into(),
                subject_type: citytown,
                object_type: country,
                headers: strvec!["country", "nation"],
                functional: true,
            },
            RelationDef {
                name: "edition.best_director".into(),
                subject_type: award_edition,
                object_type: director,
                headers: strvec!["best director", "direction winner", "recipient"],
                functional: true,
            },
            RelationDef {
                name: "edition.best_film".into(),
                subject_type: award_edition,
                object_type: film,
                headers: strvec!["best film", "film", "winning film"],
                functional: true,
            },
            RelationDef {
                name: "edition.award".into(),
                subject_type: award_edition,
                object_type: award,
                headers: strvec!["award", "prize"],
                functional: true,
            },
            RelationDef {
                name: "series.created_by".into(),
                subject_type: tv_series,
                object_type: person,
                headers: strvec!["creator", "created by"],
                functional: false,
            },
            RelationDef {
                name: "series.language".into(),
                subject_type: tv_series,
                object_type: language,
                headers: strvec!["language"],
                functional: true,
            },
            RelationDef {
                name: "musician.hometown".into(),
                subject_type: musician,
                object_type: citytown,
                headers: strvec!["hometown", "origin"],
                functional: true,
            },
        ];

        Self { types, relations }
    }

    /// Whether `t` equals `ancestor` or descends from it.
    pub fn is_subtype(&self, t: TypeId, ancestor: TypeId) -> bool {
        let mut cur = Some(t);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.types[c].parent;
        }
        false
    }

    /// The coarse (root) ancestor of a type.
    pub fn coarse_of(&self, t: TypeId) -> TypeId {
        let mut cur = t;
        while let Some(p) = self.types[cur].parent {
            cur = p;
        }
        cur
    }

    /// All fine-grained types (leaves of the hierarchy) suitable for
    /// entity generation.
    pub fn leaf_types(&self) -> Vec<TypeId> {
        (0..self.types.len()).filter(|&t| !self.types.iter().any(|o| o.parent == Some(t))).collect()
    }

    /// Relations whose subject type accepts entities of type `t`.
    pub fn relations_for_subject(&self, t: TypeId) -> Vec<RelationId> {
        (0..self.relations.len())
            .filter(|&r| self.is_subtype(t, self.relations[r].subject_type))
            .collect()
    }

    /// Look up a type id by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.types.iter().position(|t| t.name == name)
    }

    /// Look up a relation id by name.
    pub fn relation_by_name(&self, name: &str) -> Option<RelationId> {
        self.relations.iter().position(|r| r.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_schema_is_consistent() {
        let s = Schema::standard();
        assert!(s.types.len() >= 15);
        assert!(s.relations.len() >= 15);
        for r in &s.relations {
            assert!(r.subject_type < s.types.len());
            assert!(r.object_type < s.types.len());
            assert!(!r.headers.is_empty());
        }
    }

    #[test]
    fn subtype_chain_resolves() {
        let s = Schema::standard();
        let person = s.type_by_name("person").unwrap();
        let actor = s.type_by_name("actor").unwrap();
        assert!(s.is_subtype(actor, person));
        assert!(!s.is_subtype(person, actor));
        assert_eq!(s.coarse_of(actor), person);
        assert_eq!(s.coarse_of(person), person);
    }

    #[test]
    fn leaf_types_have_no_children() {
        let s = Schema::standard();
        for t in s.leaf_types() {
            assert!(!s.types.iter().any(|o| o.parent == Some(t)));
        }
        // person is not a leaf
        let person = s.type_by_name("person").unwrap();
        assert!(!s.leaf_types().contains(&person));
    }

    #[test]
    fn person_relations_apply_to_athletes() {
        let s = Schema::standard();
        let athlete = s.type_by_name("pro_athlete").unwrap();
        let rels = s.relations_for_subject(athlete);
        let names: Vec<&str> = rels.iter().map(|&r| s.relations[r].name.as_str()).collect();
        assert!(names.contains(&"athlete.team"));
        assert!(names.contains(&"person.birthplace"), "inherited relation missing");
    }

    #[test]
    fn schema_is_deterministic() {
        let a = Schema::standard();
        let b = Schema::standard();
        assert_eq!(a.types.len(), b.types.len());
        assert_eq!(a.relations[0].name, b.relations[0].name);
    }
}
