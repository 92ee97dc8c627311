//! The object registry: compiled classes plus object instances.
//!
//! The registry is the static world the simulator runs against: which
//! classes exist, which objects instantiate them, and which node each
//! object's initial (version-0) image lives on. It validates that every
//! invocation site references a real class/method pair so run-time
//! dispatch can never dangle.

use std::fmt;

use lotec_mem::ObjectId;
use lotec_sim::NodeId;

use crate::class::{ClassDef, ClassId, MethodId};
use crate::compiler::{compile, CompileError, CompiledClass};

/// One object instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInstance {
    /// The object's id.
    pub id: ObjectId,
    /// The class it instantiates.
    pub class: ClassId,
    /// The node holding its initial image.
    pub home: NodeId,
}

/// Errors building or querying a registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A class failed to compile.
    Compile(CompileError),
    /// An object references a class id that was never registered.
    UnknownClass {
        /// The offending class id.
        class: ClassId,
    },
    /// An invocation site references a method that does not exist on the
    /// target class.
    UnknownMethod {
        /// Target class of the invocation site.
        class: ClassId,
        /// The missing method.
        method: MethodId,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Compile(e) => write!(f, "compile error: {e}"),
            RegistryError::UnknownClass { class } => write!(f, "unknown class {class}"),
            RegistryError::UnknownMethod { class, method } => {
                write!(f, "class {class} has no method {method}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for RegistryError {
    fn from(e: CompileError) -> Self {
        RegistryError::Compile(e)
    }
}

/// Compiled classes plus object instances: the static schema of a run.
#[derive(Debug, Clone)]
pub struct ObjectRegistry {
    page_size: u32,
    classes: Vec<CompiledClass>,
    objects: Vec<ObjectInstance>,
    /// Pages per object, by object id: the layout every node's page store
    /// sizes its rows by.
    page_counts: Vec<u16>,
}

impl ObjectRegistry {
    /// Compiles `classes` and registers `objects`.
    ///
    /// Objects are assigned ids `O0, O1, …` in the order given; each entry
    /// of `objects` is `(class, home node)`.
    ///
    /// # Errors
    ///
    /// Returns an error if any class fails to compile, any object names an
    /// unknown class, or any invocation site dangles.
    pub fn build(
        classes: &[ClassDef],
        objects: &[(ClassId, NodeId)],
        page_size: u32,
    ) -> Result<ObjectRegistry, RegistryError> {
        let compiled: Vec<CompiledClass> = classes
            .iter()
            .map(|c| compile(c, page_size))
            .collect::<Result<_, _>>()?;
        // Validate invocation sites.
        for class in &compiled {
            for method in class.class().methods() {
                for path in method.paths() {
                    for site in path.invokes() {
                        let target = compiled
                            .get(site.class.index() as usize)
                            .ok_or(RegistryError::UnknownClass { class: site.class })?;
                        if site.method.index() as usize >= target.class().methods().len() {
                            return Err(RegistryError::UnknownMethod {
                                class: site.class,
                                method: site.method,
                            });
                        }
                    }
                }
            }
        }
        let objects = objects
            .iter()
            .enumerate()
            .map(|(i, &(class, home))| {
                if class.index() as usize >= compiled.len() {
                    return Err(RegistryError::UnknownClass { class });
                }
                Ok(ObjectInstance {
                    id: ObjectId::new(i as u32),
                    class,
                    home,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let page_counts = objects
            .iter()
            .map(|o| compiled[o.class.index() as usize].layout().num_pages())
            .collect();
        Ok(ObjectRegistry {
            page_size,
            classes: compiled,
            objects,
            page_counts,
        })
    }

    /// The DSM page size this registry was compiled for.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Number of registered classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of registered objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// A compiled class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class(&self, class: ClassId) -> &CompiledClass {
        &self.classes[class.index() as usize]
    }

    /// An object instance.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn object(&self, object: ObjectId) -> &ObjectInstance {
        &self.objects[object.index() as usize]
    }

    /// The compiled class of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn class_of(&self, object: ObjectId) -> &CompiledClass {
        self.class(self.object(object).class)
    }

    /// Number of pages `object` spans.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn num_pages(&self, object: ObjectId) -> u16 {
        self.page_counts[object.index() as usize]
    }

    /// Pages per object, indexed by object id.
    pub fn page_counts(&self) -> &[u16] {
        &self.page_counts
    }

    /// Iterator over all object instances.
    pub fn objects(&self) -> impl Iterator<Item = &ObjectInstance> {
        self.objects.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;

    fn classes() -> Vec<ClassDef> {
        vec![
            ClassBuilder::new("Leaf")
                .attribute("x", 64)
                .method("bump", |m| m.path(|p| p.reads(&["x"]).writes(&["x"])))
                .build(),
            ClassBuilder::new("Root")
                .attribute("y", 64)
                .method("drive", |m| {
                    m.path(|p| p.reads(&["y"]).invokes(ClassId::new(0), MethodId::new(0)))
                })
                .build(),
        ]
    }

    #[test]
    fn builds_and_resolves() {
        let reg = ObjectRegistry::build(
            &classes(),
            &[
                (ClassId::new(0), NodeId::new(0)),
                (ClassId::new(1), NodeId::new(1)),
            ],
            128,
        )
        .unwrap();
        assert_eq!(reg.num_classes(), 2);
        assert_eq!(reg.num_objects(), 2);
        assert_eq!(reg.object(ObjectId::new(1)).home, NodeId::new(1));
        assert_eq!(reg.class_of(ObjectId::new(0)).class().name(), "Leaf");
        assert_eq!(reg.num_pages(ObjectId::new(0)), 1);
        assert_eq!(reg.page_size(), 128);
    }

    #[test]
    fn object_ids_assigned_in_order() {
        let reg = ObjectRegistry::build(
            &classes(),
            &[
                (ClassId::new(1), NodeId::new(0)),
                (ClassId::new(0), NodeId::new(0)),
            ],
            128,
        )
        .unwrap();
        let ids: Vec<u32> = reg.objects().map(|o| o.id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn unknown_class_for_object_rejected() {
        let err = ObjectRegistry::build(&classes(), &[(ClassId::new(9), NodeId::new(0))], 128)
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError::UnknownClass {
                class: ClassId::new(9)
            }
        );
        assert!(err.to_string().contains("unknown class C9"));
    }

    #[test]
    fn dangling_invocation_class_rejected() {
        let bad = vec![ClassBuilder::new("Bad")
            .attribute("x", 8)
            .method("m", |m| {
                m.path(|p| p.reads(&["x"]).invokes(ClassId::new(5), MethodId::new(0)))
            })
            .build()];
        let err = ObjectRegistry::build(&bad, &[], 128).unwrap_err();
        assert_eq!(
            err,
            RegistryError::UnknownClass {
                class: ClassId::new(5)
            }
        );
    }

    #[test]
    fn dangling_invocation_method_rejected() {
        let bad = vec![ClassBuilder::new("Bad")
            .attribute("x", 8)
            .method("m", |m| {
                m.path(|p| p.reads(&["x"]).invokes(ClassId::new(0), MethodId::new(7)))
            })
            .build()];
        let err = ObjectRegistry::build(&bad, &[], 128).unwrap_err();
        assert_eq!(
            err,
            RegistryError::UnknownMethod {
                class: ClassId::new(0),
                method: MethodId::new(7)
            }
        );
    }

    #[test]
    fn empty_object_list_is_fine() {
        let reg = ObjectRegistry::build(&classes(), &[], 128).unwrap();
        assert_eq!(reg.num_objects(), 0);
        assert_eq!(reg.objects().count(), 0);
    }
}
