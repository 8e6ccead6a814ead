//! The CM plug-in mechanism (§2).
//!
//! The mediator is independent of a source's choice of CM formalism: a
//! source exports its conceptual model in any XML dialect for which a
//! *translator* — an XML-encoded [`Transform`] mapping that dialect into
//! the GCM wire format — has been registered. The mediator then needs
//! only "a single GCM engine for handling arbitrary CMs".
//!
//! Built-in translators are provided for three simulated formalisms
//! (stand-ins for the paper's (E)ER, UML/XMI, and RDF Schema):
//!
//! * `"er"` — entity-relationship diagrams in XML;
//! * `"uxf"` — a UML-class-diagram exchange format (after \[SY98\]);
//! * `"rdfs"` — an RDF-Schema-like triple dialect.
//!
//! The `"gcm"` formalism is the identity: documents already in the wire
//! format are decoded directly.

use crate::cm::ConceptualModel;
use crate::error::{GcmError, Result};
use crate::xml_codec;
use kind_xml::{Element, Transform};
use std::collections::HashMap;

/// A UXF-2-GCM-style translator for entity-relationship exports.
pub const ER_PLUGIN: &str = r#"
<transform output="gcm">
  <rule match="//entity">
    <class name="{@name}"/>
    <let name="cls" select="@name"/>
    <for-each select="attribute">
      <method class="{$cls}" name="{@name}" result="{@domain}"/>
    </for-each>
  </rule>
  <rule match="//isa">
    <subclass sub="{@sub}" sup="{@sup}"/>
  </rule>
  <rule match="//relationship">
    <relation name="{@name}">
      <for-each select="participant">
        <role name="{@role}" class="{@entity}"/>
      </for-each>
    </relation>
  </rule>
  <rule match="//entity-instance">
    <instance obj="{@id}" class="{@entity}"/>
    <let name="obj" select="@id"/>
    <for-each select="value">
      <methodinst obj="{$obj}" method="{@attribute}" str="{@val}"/>
    </for-each>
  </rule>
  <rule match="//link">
    <relationinst name="{@relationship}">
      <for-each select="end">
        <value role="{@role}" id="{@ref}"/>
      </for-each>
    </relationinst>
  </rule>
</transform>
"#;

/// UML-class-diagram exchange (UXF-like, after \[SY98\]).
pub const UXF_PLUGIN: &str = r#"
<transform output="gcm">
  <rule match="//class">
    <class name="{@name}"/>
    <let name="cls" select="@name"/>
    <for-each select="inherits">
      <subclass sub="{$cls}" sup="{@from}"/>
    </for-each>
    <for-each select="attribute">
      <method class="{$cls}" name="{@name}" result="{@type}"/>
    </for-each>
    <for-each select="operation">
      <method class="{$cls}" name="{@name}" result="{@returns}"/>
    </for-each>
  </rule>
  <rule match="//association">
    <relation name="{@name}">
      <for-each select="end">
        <role name="{@role}" class="{@class}"/>
      </for-each>
    </relation>
  </rule>
  <rule match="//object">
    <instance obj="{@id}" class="{@class}"/>
  </rule>
</transform>
"#;

/// RDF-Schema-like dialect: classes, subClassOf, properties with
/// domain/range, typed resources, and literal/resource triples.
pub const RDFS_PLUGIN: &str = r#"
<transform output="gcm">
  <rule match="//rdfs:Class">
    <class name="{@rdf:ID}"/>
    <let name="cls" select="@rdf:ID"/>
    <for-each select="rdfs:subClassOf">
      <subclass sub="{$cls}" sup="{@rdf:resource}"/>
    </for-each>
  </rule>
  <rule match="//rdf:Property">
    <method class="{rdfs:domain/@rdf:resource}" name="{@rdf:ID}"
            result="{rdfs:range/@rdf:resource}"/>
  </rule>
  <rule match="//rdf:Description">
    <instance obj="{@rdf:ID}" class="{rdf:type/@rdf:resource}"/>
  </rule>
  <rule match="//triple">
    <methodinst obj="{@subject}" method="{@predicate}" str="{@object}"/>
  </rule>
</transform>
"#;

/// The mediator's registry of CM-to-GCM translators.
#[derive(Debug, Clone)]
pub struct PluginRegistry {
    plugins: HashMap<String, Transform>,
}

impl Default for PluginRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl PluginRegistry {
    /// An empty registry (only the identity `"gcm"` formalism works).
    pub fn empty() -> Self {
        PluginRegistry {
            plugins: HashMap::new(),
        }
    }

    /// A registry with the built-in `er`, `uxf`, and `rdfs` translators.
    pub fn with_builtins() -> Self {
        let mut r = Self::empty();
        r.register("er", ER_PLUGIN).expect("builtin er plugin");
        r.register("uxf", UXF_PLUGIN).expect("builtin uxf plugin");
        r.register("rdfs", RDFS_PLUGIN)
            .expect("builtin rdfs plugin");
        r
    }

    /// Registers a translator for `formalism` from its XML text — the
    /// paper's "source sends the translator once to the mediator" flow.
    pub fn register(&mut self, formalism: &str, transform_xml: &str) -> Result<()> {
        let t = Transform::parse(transform_xml)?;
        self.plugins.insert(formalism.to_string(), t);
        Ok(())
    }

    /// The registered formalism names (excluding the implicit `gcm`).
    pub fn formalisms(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.plugins.keys().map(String::as_str).collect();
        v.sort();
        v
    }

    /// Translates a CM document in `formalism` into a decoded
    /// [`ConceptualModel`]. The `"gcm"` formalism decodes directly.
    pub fn translate(&self, formalism: &str, doc: &Element) -> Result<ConceptualModel> {
        if formalism == "gcm" {
            return xml_codec::decode(doc);
        }
        let t = self
            .plugins
            .get(formalism)
            .ok_or_else(|| GcmError::UnknownFormalism {
                name: formalism.to_string(),
            })?;
        let gcm_doc = t.apply(doc);
        let mut cm = xml_codec::decode(&gcm_doc)?;
        if let Some(name) = doc.attr("name") {
            cm.name = name.to_string();
        }
        Ok(cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::GcmBase;
    use crate::decl::GcmDecl;

    #[test]
    fn er_plugin_translates_schema_and_data() {
        let reg = PluginRegistry::with_builtins();
        let doc = kind_xml::parse(
            r#"<er name="SYNAPSE">
                 <entity name="spine">
                   <attribute name="length" domain="float"/>
                 </entity>
                 <isa sub="spine" sup="compartment"/>
                 <relationship name="has">
                   <participant role="whole" entity="dendrite"/>
                   <participant role="part" entity="spine"/>
                 </relationship>
                 <entity-instance id="s1" entity="spine"/>
                 <link relationship="has">
                   <end role="whole" ref="d1"/>
                   <end role="part" ref="s1"/>
                 </link>
               </er>"#,
        )
        .unwrap();
        let cm = reg.translate("er", &doc.root).unwrap();
        assert_eq!(cm.name, "SYNAPSE");
        assert!(cm.decls.iter().any(
            |d| matches!(d, GcmDecl::Relation { name, roles } if name == "has" && roles.len() == 2)
        ));
        let mut base = GcmBase::new();
        base.apply(&cm).unwrap();
        let m = base.run().unwrap();
        assert!(base.flogic().is_instance(&m, "s1", "compartment"));
        let e = base.flogic().engine();
        assert_eq!(e.query_model(&m, "has(d1, s1)").unwrap().len(), 1);
    }

    #[test]
    fn uxf_plugin_translates_uml_classes() {
        let reg = PluginRegistry::with_builtins();
        let doc = kind_xml::parse(
            r#"<uxf name="NCMIR">
                 <class name="neuron">
                   <attribute name="soma_size" type="float"/>
                 </class>
                 <class name="purkinje_cell">
                   <inherits from="neuron"/>
                 </class>
                 <association name="expresses">
                   <end role="cell" class="neuron"/>
                   <end role="protein" class="protein"/>
                 </association>
                 <object id="p1" class="purkinje_cell"/>
               </uxf>"#,
        )
        .unwrap();
        let cm = reg.translate("uxf", &doc.root).unwrap();
        let mut base = GcmBase::new();
        base.apply(&cm).unwrap();
        let m = base.run().unwrap();
        assert!(base.flogic().is_instance(&m, "p1", "neuron"));
        // Signature inherited down to purkinje_cell.
        let e = base.flogic().engine();
        assert_eq!(
            e.query_model(&m, "meth(purkinje_cell, soma_size, float)")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn rdfs_plugin_translates_triples() {
        let reg = PluginRegistry::with_builtins();
        let doc = kind_xml::parse(
            r#"<rdf name="SENSELAB">
                 <rdfs:Class rdf:ID="neuron"/>
                 <rdfs:Class rdf:ID="purkinje_cell">
                   <rdfs:subClassOf rdf:resource="neuron"/>
                 </rdfs:Class>
                 <rdf:Property rdf:ID="organism">
                   <rdfs:domain rdf:resource="neuron"/>
                   <rdfs:range rdf:resource="literal"/>
                 </rdf:Property>
                 <rdf:Description rdf:ID="p9">
                   <rdf:type rdf:resource="purkinje_cell"/>
                 </rdf:Description>
                 <triple subject="p9" predicate="organism" object="rat"/>
               </rdf>"#,
        )
        .unwrap();
        let cm = reg.translate("rdfs", &doc.root).unwrap();
        let mut base = GcmBase::new();
        base.apply(&cm).unwrap();
        let m = base.run().unwrap();
        assert!(base.flogic().is_instance(&m, "p9", "neuron"));
        let vals = base.flogic().method_values(&m, "p9");
        assert!(vals.contains(&("organism".to_string(), "rat".to_string())));
    }

    #[test]
    fn gcm_identity_formalism() {
        let reg = PluginRegistry::empty();
        let doc = kind_xml::parse(r#"<gcm name="X"><instance obj="a" class="c"/></gcm>"#).unwrap();
        let cm = reg.translate("gcm", &doc.root).unwrap();
        assert_eq!(cm.decls.len(), 1);
    }

    #[test]
    fn unknown_formalism_rejected() {
        let reg = PluginRegistry::empty();
        let doc = kind_xml::parse("<x/>").unwrap();
        assert!(matches!(
            reg.translate("xmi", &doc.root),
            Err(GcmError::UnknownFormalism { .. })
        ));
    }

    #[test]
    fn custom_plugin_registration_over_the_wire() {
        // A brand-new formalism arrives as a transform document.
        let mut reg = PluginRegistry::empty();
        reg.register(
            "myfmt",
            r#"<transform output="gcm">
                 <rule match="//thing"><instance obj="{@id}" class="{@kind}"/></rule>
               </transform>"#,
        )
        .unwrap();
        let doc = kind_xml::parse(r#"<stuff><thing id="t1" kind="gizmo"/></stuff>"#).unwrap();
        let cm = reg.translate("myfmt", &doc.root).unwrap();
        assert_eq!(cm.decls.len(), 1);
        assert!(reg.formalisms().contains(&"myfmt"));
    }
}
