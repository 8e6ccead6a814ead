//! The wrapper interface: how a source joins the mediated system.
//!
//! Paper §2, "The Mediator System at Work": a wrapped source registers by
//! sending (i) its conceptual model (class schemas, relationship schemas,
//! semantic rules), (ii) a description of its **query capabilities** —
//! "a (usually very limited) CM query language … the logical API for
//! retrieving actual object instances", minimally supporting browsing of
//! all instances, optionally declaring binding patterns that let the
//! mediator *push down* selections — and (iii) the **anchor** attributes
//! giving its data's "semantic coordinates" in the mediator's domain map.

use kind_gcm::GcmValue;
use kind_xml::Element;
use std::sync::Arc;

/// A selection `attr = value` pushed to (or applied on behalf of) a
/// source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Attribute name.
    pub attr: String,
    /// Required value.
    pub value: GcmValue,
}

/// A query against one source class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceQuery {
    /// The exported class to scan.
    pub class: String,
    /// Conjunctive equality selections.
    pub selections: Vec<Selection>,
}

impl SourceQuery {
    /// A full scan of `class`.
    pub fn scan(class: impl Into<String>) -> Self {
        SourceQuery {
            class: class.into(),
            selections: Vec::new(),
        }
    }

    /// Adds an equality selection.
    pub fn with(mut self, attr: &str, value: GcmValue) -> Self {
        self.selections.push(Selection {
            attr: attr.into(),
            value,
        });
        self
    }
}

/// A declared query capability: which attributes of a class accept
/// pushed-down selections (a simple binding-pattern description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// The exported class.
    pub class: String,
    /// Attributes usable as bound arguments. Everything else must be
    /// filtered mediator-side after a scan.
    pub pushable: Vec<String>,
}

/// A named **query template** (§2: wrappers may "declare further
/// capabilities as binding patterns or query templates which allow the
/// mediator to optimize query evaluation by pushing down subqueries").
///
/// A template is a canned parameterized query: calling
/// `protein_by_location(L)` expands to a scan of `class` with the
/// positional arguments bound to `params` — a coarse but honest model of
/// the "logical API" of a limited source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTemplate {
    /// Template name.
    pub name: String,
    /// Underlying exported class.
    pub class: String,
    /// Attribute names bound by positional call arguments.
    pub params: Vec<String>,
}

impl QueryTemplate {
    /// Expands the template into a concrete [`SourceQuery`].
    ///
    /// Returns `None` when the argument count does not match.
    pub fn expand(&self, args: &[GcmValue]) -> Option<SourceQuery> {
        if args.len() != self.params.len() {
            return None;
        }
        let mut q = SourceQuery::scan(&self.class);
        for (attr, value) in self.params.iter().zip(args) {
            q = q.with(attr, value.clone());
        }
        Some(q)
    }
}

/// One object row returned by a wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectRow {
    /// The object identifier.
    pub id: String,
    /// Attribute values.
    pub attrs: Vec<(String, GcmValue)>,
}

impl ObjectRow {
    /// The value of `attr`, if present.
    pub fn get(&self, attr: &str) -> Option<&GcmValue> {
        self.attrs.iter().find(|(a, _)| a == attr).map(|(_, v)| v)
    }

    /// The value of `attr` as a display string.
    pub fn get_str(&self, attr: &str) -> Option<String> {
        self.get(attr).map(|v| v.to_string())
    }

    /// The value of `attr` as an integer, if it is one.
    pub fn get_int(&self, attr: &str) -> Option<i64> {
        match self.get(attr) {
            Some(GcmValue::Int(i)) => Some(*i),
            _ => None,
        }
    }
}

/// The rows of one wrapper answer, shared by reference: a wrapper that
/// keeps its rows hands out its own allocation, and the fetch plane copies
/// them only where something changes them (a filter drops rows, a fault
/// corrupts them). The mediator reads them in place.
pub type Rows = Arc<Vec<ObjectRow>>;

/// An anchor declaration: instances of `class` are tagged with DM
/// `concept` — either fixedly, or through a `via` attribute whose value
/// *is* the concept name (the paper's anchor/context attributes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// Every instance of `class` anchors at `concept`.
    Fixed {
        /// Source class.
        class: String,
        /// DM concept.
        concept: String,
    },
    /// Each instance of `class` anchors at the concept named by its
    /// `attr` value (e.g. a `location` attribute holding
    /// `"Purkinje_Cell"`).
    ByAttr {
        /// Source class.
        class: String,
        /// The anchor attribute.
        attr: String,
    },
    /// A **derived anchor** (§2 footnote: anchors may be "methods, i.e.
    /// derived attributes which are computed on demand at the mediator"):
    /// the mediator evaluates `rule` — FL text defining
    /// `anchor_at(X, C)` — over the class's rows at registration time and
    /// anchors each object at the concept(s) the rule derives.
    Derived {
        /// Source class whose rows feed the rule.
        class: String,
        /// FL rules deriving `anchor_at(Obj, Concept)`.
        rule: String,
    },
}

/// The outcome of a split-phase [`Wrapper::submit`]: either the answer
/// itself (compute-bound wrappers answer inline) or a parked request the
/// caller must [`Wrapper::complete`] after roughly `stall` of wall time.
///
/// This is how a wrapper overlaps its I/O with other sources': instead
/// of blocking an OS thread inside [`Wrapper::query`] for the duration of
/// a network round-trip, it *declares* the stall, the executor
/// (`crate::executor`) parks the fetch job on a timer, and a worker
/// thread comes back for the rows when the stall has elapsed.
#[derive(Debug)]
pub enum Submission {
    /// The wrapper answered inline; no parking needed.
    Ready(std::result::Result<Rows, crate::fault::SourceError>),
    /// The request was started. Call [`Wrapper::complete`] with `ticket`
    /// no earlier than `stall` from now to collect the rows.
    Parked {
        /// The expected wall-clock stall before the answer is ready.
        stall: std::time::Duration,
        /// Opaque handle identifying the in-flight request; handed back
        /// to [`Wrapper::complete`] verbatim.
        ticket: u64,
    },
}

/// The wrapper interface. Implementations translate between a source's
/// native data and the conceptual level.
///
/// Wrappers are `Send + Sync`: a registered source is shared behind an
/// `Arc<dyn Wrapper>` and may be queried from multiple threads.
pub trait Wrapper: Send + Sync {
    /// The source's name (unique per mediator).
    fn name(&self) -> &str;

    /// The CM formalism the source exports in (`"gcm"`, `"er"`, `"uxf"`,
    /// `"rdfs"`, or any custom formalism registered as a plug-in).
    fn formalism(&self) -> &str;

    /// The conceptual model export, as an XML document in the source's
    /// formalism (schema, semantic rules, and optionally bulk data).
    fn export_cm(&self) -> Element;

    /// Declared query capabilities.
    fn capabilities(&self) -> Vec<Capability>;

    /// Declared query templates (defaults to none).
    fn templates(&self) -> Vec<QueryTemplate> {
        Vec::new()
    }

    /// Anchor declarations into the mediator's domain map.
    fn anchors(&self) -> Vec<Anchor>;

    /// DL axioms this source contributes to the domain map at
    /// registration (Figure 3's `MyNeuron`/`MyDendrite` flow); empty for
    /// sources that only anchor.
    fn dm_contribution(&self) -> String {
        String::new()
    }

    /// Evaluates a query. Selections on non-pushable attributes may be
    /// ignored by the source (the mediator re-filters); selections on
    /// pushable attributes must be honored.
    ///
    /// The boundary is fallible: a wrapper may be unreachable, time out,
    /// truncate, or ship garbage — see [`crate::fault::SourceError`] for
    /// the taxonomy and [`crate::Federation::fetch`] for how failures are
    /// retried, circuit-broken, and reported.
    fn query(&self, q: &SourceQuery) -> std::result::Result<Rows, crate::fault::SourceError>;

    /// Cumulative virtual milliseconds this wrapper has *itself* spent
    /// serving queries (e.g. the injected delays of a
    /// [`crate::FaultInjector`]). The deadline plane charges a fetch
    /// job's budget with the delta of this counter around each attempt —
    /// never with raw clock reads, which concurrent jobs pollute — so
    /// deadline and hedging decisions are bit-identical at every
    /// `fetch_threads` setting. Wrappers that never stall (the default)
    /// report 0 forever.
    fn virtual_cost_ms(&self) -> u64 {
        0
    }

    /// Split-phase query, phase one: start the request. Stall-aware
    /// wrappers return [`Submission::Parked`] immediately — no blocking —
    /// and deliver the rows from [`Self::complete`]; everything else
    /// falls back to answering inline via [`Self::query`].
    ///
    /// Contract: at most one submission per wrapper is outstanding at a
    /// time (the fetch plane runs each source's requests serially inside
    /// one job, and a hedge backup is only submitted after its primary
    /// completed), and every `Parked` submission is completed exactly
    /// once.
    fn submit(&self, q: &SourceQuery) -> Submission {
        Submission::Ready(self.query(q))
    }

    /// Split-phase query, phase two: collect a parked submission's rows.
    /// Called once per [`Submission::Parked`], no earlier than its
    /// declared stall. The default pairs with the default [`Self::submit`]
    /// (which never parks) and simply answers the query, so a wrapper
    /// overriding neither method still behaves correctly.
    fn complete(
        &self,
        _ticket: u64,
        q: &SourceQuery,
    ) -> std::result::Result<Rows, crate::fault::SourceError> {
        self.query(q)
    }
}

/// Decorates any wrapper with a declared wall-clock `stall` per query —
/// the generic stall-aware adapter.
///
/// On the blocking path ([`Wrapper::query`], reached through a decorator
/// that does not forward `submit`) the adapter really sleeps `stall` of
/// wall time, modelling a network round-trip that pins its thread. On
/// the split-phase path the fetch plane uses it parks instead: `submit`
/// returns [`Submission::Parked`] without blocking, and `complete`
/// answers from the inner wrapper — so hundreds of stalled sources
/// overlap on a handful of executor workers.
pub struct StallAware {
    inner: Arc<dyn Wrapper>,
    stall: std::time::Duration,
}

impl StallAware {
    /// Wraps `inner`, declaring `stall` of wall time per query.
    pub fn new(inner: Arc<dyn Wrapper>, stall: std::time::Duration) -> Arc<Self> {
        Arc::new(StallAware { inner, stall })
    }
}

impl Wrapper for StallAware {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn formalism(&self) -> &str {
        self.inner.formalism()
    }

    fn export_cm(&self) -> Element {
        self.inner.export_cm()
    }

    fn capabilities(&self) -> Vec<Capability> {
        self.inner.capabilities()
    }

    fn templates(&self) -> Vec<QueryTemplate> {
        self.inner.templates()
    }

    fn anchors(&self) -> Vec<Anchor> {
        self.inner.anchors()
    }

    fn dm_contribution(&self) -> String {
        self.inner.dm_contribution()
    }

    fn virtual_cost_ms(&self) -> u64 {
        self.inner.virtual_cost_ms()
    }

    fn query(&self, q: &SourceQuery) -> std::result::Result<Rows, crate::fault::SourceError> {
        std::thread::sleep(self.stall);
        self.inner.query(q)
    }

    fn submit(&self, _q: &SourceQuery) -> Submission {
        Submission::Parked {
            stall: self.stall,
            ticket: 0,
        }
    }

    fn complete(
        &self,
        _ticket: u64,
        q: &SourceQuery,
    ) -> std::result::Result<Rows, crate::fault::SourceError> {
        self.inner.query(q)
    }
}

/// A simple in-memory wrapper: rows per class, everything pushable or
/// nothing pushable. The building block for the simulated Neuroscience
/// sources and for tests.
#[derive(Debug, Default)]
pub struct MemoryWrapper {
    /// Source name.
    pub name: String,
    /// Export formalism.
    pub formalism: String,
    /// The CM export document.
    pub cm: Option<Element>,
    /// Class → rows. A scan with no pushable selection ships the class's
    /// `Arc` itself.
    pub rows: std::collections::HashMap<String, Rows>,
    /// Declared capabilities.
    pub caps: Vec<Capability>,
    /// Declared query templates.
    pub query_templates: Vec<QueryTemplate>,
    /// Anchor declarations.
    pub anchor_decls: Vec<Anchor>,
    /// DL axioms contributed at registration.
    pub dm_axioms: String,
    /// Counts queries served (atomic: stats survive concurrent use).
    pub queries_served: std::sync::atomic::AtomicUsize,
    /// Counts rows shipped.
    pub rows_shipped: std::sync::atomic::AtomicUsize,
}

impl Clone for MemoryWrapper {
    fn clone(&self) -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        MemoryWrapper {
            name: self.name.clone(),
            formalism: self.formalism.clone(),
            cm: self.cm.clone(),
            rows: self.rows.clone(),
            caps: self.caps.clone(),
            query_templates: self.query_templates.clone(),
            anchor_decls: self.anchor_decls.clone(),
            dm_axioms: self.dm_axioms.clone(),
            queries_served: AtomicUsize::new(self.queries_served.load(Ordering::SeqCst)),
            rows_shipped: AtomicUsize::new(self.rows_shipped.load(Ordering::SeqCst)),
        }
    }
}

impl MemoryWrapper {
    /// Creates an empty wrapper exporting native GCM.
    pub fn new(name: impl Into<String>) -> Self {
        MemoryWrapper {
            name: name.into(),
            formalism: "gcm".into(),
            ..Default::default()
        }
    }

    /// Builds a wrapper from an XML **source bundle** — the whole source
    /// description (CM export, capabilities, templates, anchors, DM
    /// contribution, data) in one document, so a source can arrive "over
    /// the wire" or from a file:
    ///
    /// ```xml
    /// <source name="LAB" formalism="gcm">
    ///   <cm><gcm name="LAB"><instance obj="x" class="c"/></gcm></cm>
    ///   <capability class="m" pushable="loc,ion"/>
    ///   <template name="by_loc" class="m" params="loc"/>
    ///   <anchor class="m" attr="loc"/>        <!-- ByAttr -->
    ///   <anchor class="m" concept="Spine"/>   <!-- Fixed -->
    ///   <axioms>MyThing &lt; Spine.</axioms>
    ///   <data class="m">
    ///     <row id="r1"><v name="loc" id="Spine"/><v name="amount" int="4"/></row>
    ///   </data>
    /// </source>
    /// ```
    pub fn from_xml(bundle: &Element) -> std::result::Result<Self, kind_gcm::GcmError> {
        use kind_gcm::GcmError;
        let malformed = |m: String| GcmError::Malformed { message: m };
        if bundle.name != "source" {
            return Err(malformed(format!(
                "expected <source> root, found <{}>",
                bundle.name
            )));
        }
        let mut w = MemoryWrapper::new(
            bundle
                .attr("name")
                .ok_or_else(|| malformed("<source> missing name".into()))?,
        );
        w.formalism = bundle.attr("formalism").unwrap_or("gcm").to_string();
        for e in bundle.elements() {
            match e.name.as_str() {
                "cm" => {
                    w.cm = e.elements().next().cloned();
                }
                "capability" => {
                    let class = e
                        .attr("class")
                        .ok_or_else(|| malformed("<capability> missing class".into()))?;
                    let pushable = e
                        .attr("pushable")
                        .unwrap_or("")
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect();
                    w.caps.push(Capability {
                        class: class.to_string(),
                        pushable,
                    });
                }
                "template" => {
                    w.query_templates.push(QueryTemplate {
                        name: e
                            .attr("name")
                            .ok_or_else(|| malformed("<template> missing name".into()))?
                            .to_string(),
                        class: e
                            .attr("class")
                            .ok_or_else(|| malformed("<template> missing class".into()))?
                            .to_string(),
                        params: e
                            .attr("params")
                            .unwrap_or("")
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect(),
                    });
                }
                "anchor" => {
                    let class = e
                        .attr("class")
                        .ok_or_else(|| malformed("<anchor> missing class".into()))?
                        .to_string();
                    let anchor = if let Some(attr) = e.attr("attr") {
                        Anchor::ByAttr {
                            class,
                            attr: attr.to_string(),
                        }
                    } else if let Some(concept) = e.attr("concept") {
                        Anchor::Fixed {
                            class,
                            concept: concept.to_string(),
                        }
                    } else if let Some(rule) = e.attr("rule") {
                        Anchor::Derived {
                            class,
                            rule: rule.to_string(),
                        }
                    } else {
                        return Err(malformed("<anchor> needs attr=, concept=, or rule=".into()));
                    };
                    w.anchor_decls.push(anchor);
                }
                "axioms" => {
                    w.dm_axioms.push_str(&e.deep_text());
                    w.dm_axioms.push('\n');
                }
                "data" => {
                    let class = e
                        .attr("class")
                        .ok_or_else(|| malformed("<data> missing class".into()))?
                        .to_string();
                    for row in e.elements_named("row") {
                        let id = row
                            .attr("id")
                            .ok_or_else(|| malformed("<row> missing id".into()))?
                            .to_string();
                        let mut attrs = Vec::new();
                        for v in row.elements_named("v") {
                            let name = v
                                .attr("name")
                                .ok_or_else(|| malformed("<v> missing name".into()))?
                                .to_string();
                            let value = if let Some(i) = v.attr("int") {
                                GcmValue::Int(
                                    i.parse()
                                        .map_err(|_| malformed(format!("bad int `{i}` in <v>")))?,
                                )
                            } else if let Some(s) = v.attr("id") {
                                GcmValue::Id(s.to_string())
                            } else if let Some(s) = v.attr("str") {
                                GcmValue::Str(s.to_string())
                            } else {
                                return Err(malformed("<v> needs id=/int=/str=".into()));
                            };
                            attrs.push((name, value));
                        }
                        Arc::make_mut(w.rows.entry(class.clone()).or_default())
                            .push(ObjectRow { id, attrs });
                    }
                }
                other => return Err(malformed(format!("unknown <source> child <{other}>"))),
            }
        }
        Ok(w)
    }

    /// Adds a row to a class.
    pub fn add_row(&mut self, class: &str, id: &str, attrs: Vec<(&str, GcmValue)>) {
        Arc::make_mut(self.rows.entry(class.to_string()).or_default()).push(ObjectRow {
            id: id.to_string(),
            attrs: attrs.into_iter().map(|(a, v)| (a.to_string(), v)).collect(),
        });
    }
}

impl Wrapper for MemoryWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn formalism(&self) -> &str {
        &self.formalism
    }

    fn export_cm(&self) -> Element {
        self.cm
            .clone()
            .unwrap_or_else(|| Element::new("gcm").with_attr("name", self.name.clone()))
    }

    fn capabilities(&self) -> Vec<Capability> {
        self.caps.clone()
    }

    fn templates(&self) -> Vec<QueryTemplate> {
        self.query_templates.clone()
    }

    fn anchors(&self) -> Vec<Anchor> {
        self.anchor_decls.clone()
    }

    fn dm_contribution(&self) -> String {
        self.dm_axioms.clone()
    }

    fn query(&self, q: &SourceQuery) -> std::result::Result<Rows, crate::fault::SourceError> {
        self.queries_served
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let pushed: Vec<&Selection> = q
            .selections
            .iter()
            .filter(|s| {
                self.caps
                    .iter()
                    .any(|c| c.class == q.class && c.pushable.contains(&s.attr))
            })
            .collect();
        let out = match self.rows.get(&q.class) {
            None => Rows::default(),
            Some(rows) if pushed.is_empty() => Arc::clone(rows),
            Some(rows) => Arc::new(
                rows.iter()
                    .filter(|r| pushed.iter().all(|s| r.get(&s.attr) == Some(&s.value)))
                    .cloned()
                    .collect(),
            ),
        };
        self.rows_shipped
            .fetch_add(out.len(), std::sync::atomic::Ordering::SeqCst);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrapper() -> MemoryWrapper {
        let mut w = MemoryWrapper::new("TEST");
        w.caps.push(Capability {
            class: "m".into(),
            pushable: vec!["loc".into()],
        });
        w.add_row(
            "m",
            "r1",
            vec![
                ("loc", GcmValue::Id("spine".into())),
                ("amount", GcmValue::Int(4)),
            ],
        );
        w.add_row(
            "m",
            "r2",
            vec![
                ("loc", GcmValue::Id("shaft".into())),
                ("amount", GcmValue::Int(9)),
            ],
        );
        w
    }

    #[test]
    fn pushable_selection_filters_at_source() {
        let w = wrapper();
        let q = SourceQuery::scan("m").with("loc", GcmValue::Id("spine".into()));
        let rows = w.query(&q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].id, "r1");
        assert_eq!(w.rows_shipped.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn non_pushable_selection_ships_everything() {
        let w = wrapper();
        // `amount` is not pushable: the wrapper ignores the selection.
        let q = SourceQuery::scan("m").with("amount", GcmValue::Int(4));
        let rows = w.query(&q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn row_accessors() {
        let w = wrapper();
        let rows = w.query(&SourceQuery::scan("m")).unwrap();
        assert_eq!(rows[0].get_int("amount"), Some(4));
        assert_eq!(rows[0].get_str("loc"), Some("spine".into()));
        assert!(rows[0].get("missing").is_none());
    }

    /// A scan the wrapper does not filter ships the class's own `Arc`; a
    /// pushed selection filters into a fresh one and leaves it whole.
    #[test]
    fn a_plain_scan_ships_the_wrappers_own_rows() {
        let w = wrapper();
        let own = &w.rows["m"];
        assert!(Arc::ptr_eq(&w.query(&SourceQuery::scan("m")).unwrap(), own));
        let residual = SourceQuery::scan("m").with("amount", GcmValue::Int(4));
        assert!(Arc::ptr_eq(&w.query(&residual).unwrap(), own));
        let pushed = SourceQuery::scan("m").with("loc", GcmValue::Id("spine".into()));
        let rows = w.query(&pushed).unwrap();
        assert!(!Arc::ptr_eq(&rows, own));
        assert_eq!((rows.len(), own.len()), (1, 2));
    }

    #[test]
    fn unknown_class_is_empty() {
        let w = wrapper();
        assert!(w.query(&SourceQuery::scan("nope")).unwrap().is_empty());
    }

    #[test]
    fn source_bundle_from_xml() {
        let doc = kind_xml::parse(
            r#"<source name="LAB" formalism="er">
                 <cm><er name="LAB"><entity name="m"/></er></cm>
                 <capability class="m" pushable="loc,ion"/>
                 <template name="by_loc" class="m" params="loc"/>
                 <anchor class="m" attr="loc"/>
                 <axioms>MyThing &lt; Spine.</axioms>
                 <data class="m">
                   <row id="r1"><v name="loc" id="Spine"/><v name="amount" int="4"/></row>
                   <row id="r2"><v name="loc" id="Shaft"/><v name="note" str="x y"/></row>
                 </data>
               </source>"#,
        )
        .unwrap();
        let w = MemoryWrapper::from_xml(&doc.root).unwrap();
        assert_eq!(w.name, "LAB");
        assert_eq!(w.formalism, "er");
        assert_eq!(w.caps[0].pushable, vec!["loc", "ion"]);
        assert_eq!(w.query_templates[0].params, vec!["loc"]);
        assert!(w.dm_axioms.contains("MyThing < Spine."));
        let rows = w.query(&SourceQuery::scan("m")).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get_int("amount"), Some(4));
        assert_eq!(rows[1].get_str("note"), Some("x y".into()));
    }

    #[test]
    fn source_bundle_rejects_malformed() {
        for bad in [
            "<notsource/>",
            "<source/>",
            r#"<source name="x"><anchor class="m"/></source>"#,
            r#"<source name="x"><data class="m"><row/></data></source>"#,
            r#"<source name="x"><data class="m"><row id="r"><v name="a" int="zz"/></row></data></source>"#,
            r#"<source name="x"><junk/></source>"#,
        ] {
            let doc = kind_xml::parse(bad).unwrap();
            assert!(MemoryWrapper::from_xml(&doc.root).is_err(), "{bad}");
        }
    }

    #[test]
    fn template_expansion() {
        let t = QueryTemplate {
            name: "m_by_loc".into(),
            class: "m".into(),
            params: vec!["loc".into()],
        };
        let q = t.expand(&[GcmValue::Id("spine".into())]).unwrap();
        assert_eq!(q.class, "m");
        assert_eq!(q.selections.len(), 1);
        // Wrong arity is rejected.
        assert!(t.expand(&[]).is_none());
        let w = wrapper();
        assert_eq!(w.query(&q).unwrap().len(), 1);
    }
}
