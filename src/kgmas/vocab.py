"""Vocabulary constants for the shared namespace.

Everything the setup and data graphs say about assets, channels,
protocols and runtime state uses these identifiers.
"""

from __future__ import annotations

from .terms import Iri

KGMAS_NS = "http://kgmas.example/vocab#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"


def kgmas(local: str) -> Iri:
    return Iri(KGMAS_NS + local)


def xsd(local: str) -> Iri:
    return Iri(XSD_NS + local)


def agent_id_of(asset: Iri) -> str:
    """The bus id of an asset's agent: its local name, lower-cased."""
    return asset.local_name.lower()


# bus ids no asset agent may take
KG_AGENT_ID = "kg"
OPERATOR_ID = "operator"
RESERVED_AGENT_IDS = frozenset({KG_AGENT_ID, OPERATOR_ID})


# graph names
SETUP_GRAPH = kgmas("setup")
DATA_GRAPH = kgmas("data")

# asset description (layered)
HAS_ASSET_KIND = kgmas("hasAssetKind")
HAS_REALM = kgmas("hasRealm")
REALM_PHYSICAL = kgmas("physical")
REALM_DIGITAL = kgmas("digital")
REALMS = {REALM_PHYSICAL: "physical", REALM_DIGITAL: "digital"}
HAS_PROTOCOL = kgmas("hasProtocol")
HAS_ENDPOINT = kgmas("hasEndpoint")
PUBLISHES_ON = kgmas("publishesOn")
SUBSCRIBES_TO = kgmas("subscribesTo")
HAS_TOPIC = kgmas("hasTopic")
HAS_MESSAGE_KIND = kgmas("hasMessageKind")
HAS_CAPABILITY = kgmas("hasCapability")
AGGREGATES = kgmas("aggregates")
HAS_COORDINATION_ROLE = kgmas("hasCoordinationRole")

# coordination protocol
FOR_TASK = kgmas("forTask")
HAS_STEP = kgmas("hasStep")
STEP_INDEX = kgmas("stepIndex")
STEP_ROLE = kgmas("stepRole")
ACTION_KIND = kgmas("actionKind")
TARGET_ROLE = kgmas("targetRole")
CONTENT_TEMPLATE = kgmas("contentTemplate")
REQUIRES_CAPABILITY = kgmas("requiresCapability")
BINDS_ROLE = kgmas("bindsRole")

# step action kinds
KIND_SEND_REQUEST = kgmas("sendRequest")
KIND_PERFORM_ACTION = kgmas("performAction")
KIND_REPORT_EVENT = kgmas("reportEvent")
KIND_QUERY_NEXT = kgmas("queryNext")

# runtime state published to the data graph
HAS_STATUS = kgmas("hasStatus")
AT_POSITION = kgmas("atPosition")
HAS_JOINT_STATES = kgmas("hasJointStates")
HAS_GRIPPER_STATE = kgmas("hasGripperState")
HOLDS = kgmas("holds")
TASK_NAME = kgmas("taskName")
TASK_STATUS = kgmas("taskStatus")
CURRENT_STEP_INDEX = kgmas("currentStepIndex")
EVENT_OF_TASK = kgmas("eventOfTask")
EVENT_NAME = kgmas("eventName")
AT_STEP = kgmas("atStep")
AT_TICK = kgmas("atTick")

XSD_INTEGER = xsd("integer")

STATUS_IDLE = "idle"
STATUS_BUSY = "busy"
STATUS_STOPPED = "stopped"
