// Package app implements AquaApp's messaging layer: the codebook of
// 240 canned messages corresponding to diver hand signals, organized
// into eight categories with the twenty most common flagged for quick
// access (the paper's Fig 2 interface), plus message packing — two
// 8-bit message IDs per 16-bit packet — and a send/receive messenger
// with retransmission on missing ACKs.
package app

import "strings"

// Category groups messages the way the app's filter UI does.
type Category int

// The eight message categories.
const (
	Safety Category = iota
	AirAndGas
	Navigation
	MarineLife
	Equipment
	Coordination
	Emergency
	General
	numCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Safety:
		return "safety"
	case AirAndGas:
		return "air-and-gas"
	case Navigation:
		return "navigation"
	case MarineLife:
		return "marine-life"
	case Equipment:
		return "equipment"
	case Coordination:
		return "coordination"
	case Emergency:
		return "emergency"
	case General:
		return "general"
	default:
		return "unknown"
	}
}

// Categories lists all eight categories.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Message is one canned hand-signal message.
type Message struct {
	// ID is the 8-bit over-the-air code (0..239).
	ID uint8
	// Text is the message shown in the app.
	Text string
	// Category filters the list.
	Category Category
	// Common marks the twenty most-used signals displayed
	// prominently.
	Common bool
}

// NumMessages is the codebook size (the paper's 240 messages).
const NumMessages = 240

// MessagesPerCategory is the uniform category size.
const MessagesPerCategory = NumMessages / int(numCategories)

// perCategoryTexts lists 30 messages per category, in category order.
var perCategoryTexts = [numCategories][MessagesPerCategory]string{
	Safety: {
		"OK?",
		"OK!",
		"Something is wrong",
		"Help me",
		"Emergency - surface now",
		"Watch me",
		"Stay together",
		"Buddy up",
		"Stop",
		"Slow down",
		"Hold on",
		"Danger ahead",
		"Turn the dive",
		"End the dive",
		"Safety stop - 3 minutes",
		"Decompression stop needed",
		"You are too deep",
		"Check your depth",
		"Check your time",
		"Do not touch",
		"Stay calm",
		"Breathe slowly",
		"Share air with me",
		"Minor issue - I am OK",
		"Cramp - leg",
		"Cramp - arm",
		"I am cold",
		"I am tired",
		"Vertigo - help stabilize",
		"Ears not equalizing",
	},
	AirAndGas: {
		"How much air do you have?",
		"I have plenty of air",
		"Air at half tank",
		"Air low - 50 bar",
		"Air critical - on reserve",
		"Out of air",
		"Share air - octopus",
		"Switch to backup regulator",
		"Regulator free-flowing",
		"Check your gauge",
		"Air at 100 bar",
		"Air at 70 bar",
		"Breathing hard",
		"Conserve air",
		"Tank valve issue",
		"Bubbles from your tank",
		"Bubbles from your hose",
		"Regulator tastes of water",
		"Switch to snorkel at surface",
		"Air share drill - begin",
		"Air share drill - done",
		"Gas mix question",
		"Nitrox check",
		"Oxygen concern",
		"Deep stop for gas",
		"Ascend for air",
		"Buddy breathing - start",
		"Buddy breathing - stop",
		"Air OK",
		"Gauge reading unclear",
	},
	Navigation: {
		"Go up",
		"Go down",
		"Level off",
		"Go left",
		"Go right",
		"Turn around",
		"Go straight",
		"Follow me",
		"You lead",
		"Go under the obstacle",
		"Go over the obstacle",
		"Head to the boat",
		"Head to the shore",
		"Head to the anchor line",
		"Circle here",
		"Hold this depth",
		"Which way?",
		"This way",
		"Return to entry point",
		"Navigate by compass",
		"Check compass heading",
		"Current - swim across it",
		"Swim against the current",
		"Drift with the current",
		"Surface swim from here",
		"Descend on the line",
		"Ascend on the line",
		"Meet at the bottom",
		"Meet at the surface",
		"Waypoint reached",
	},
	MarineLife: {
		"Look - fish school",
		"Look - shark",
		"Look - ray",
		"Look - turtle",
		"Look - octopus",
		"Look - eel",
		"Look - dolphin",
		"Look - seal",
		"Look - jellyfish",
		"Caution - lionfish",
		"Caution - stonefish",
		"Caution - sea urchins",
		"Caution - fire coral",
		"Do not touch the coral",
		"Fragile habitat - keep off",
		"Photo opportunity",
		"Film this",
		"Small creature - macro",
		"Under the ledge",
		"In the crevice",
		"On the sand",
		"Out in the blue",
		"Above us",
		"Below us",
		"It is gone",
		"Stay still - observe",
		"Back away slowly",
		"Feeding activity",
		"Nesting site - avoid",
		"Species unknown",
	},
	Equipment: {
		"Check your equipment",
		"My mask is flooding",
		"Mask cleared",
		"Fin strap loose",
		"Fin lost",
		"Weight belt issue",
		"Drop your weights",
		"Inflate BCD",
		"Deflate BCD",
		"BCD valve stuck",
		"Computer error",
		"Computer battery low",
		"Torch failing",
		"Torch on",
		"Torch off",
		"Camera issue",
		"Reel tangled",
		"Need to cut the line",
		"Knife needed",
		"Send up the marker buoy",
		"Deploy surface marker",
		"Gauge misreading",
		"Strap needs adjustment",
		"Hood too tight",
		"Spare mask needed",
		"Secure the octopus",
		"Tank slipping - re-strap",
		"Dry suit leak",
		"Zip me up",
		"Equipment OK",
	},
	Coordination: {
		"Wait here",
		"Come here",
		"Give me a moment",
		"Ready?",
		"I am ready",
		"Not ready",
		"One more minute",
		"Five more minutes",
		"Begin the task",
		"Task complete",
		"Switch positions",
		"You shoot, I light",
		"Hold the line",
		"Tie off here",
		"Untie the line",
		"Lift together",
		"Put it down",
		"Search pattern - start",
		"Search pattern - done",
		"Cover that side",
		"I cover this side",
		"Count off",
		"Pair check",
		"Team of three",
		"Rotate leader",
		"Signal the boat",
		"Wait for the group",
		"Group is complete",
		"Missing one diver",
		"Regroup at the line",
	},
	Emergency: {
		"Diver down - assist",
		"Entangled - help",
		"Trapped - get help",
		"Lost buddy procedure",
		"I am lost",
		"Low visibility - hold hands",
		"Strong current - abort",
		"Boat traffic above",
		"Do not surface - obstacle",
		"Surface immediately",
		"Suspected decompression sickness",
		"Numbness - DCS sign",
		"Chest pain",
		"Breathing problem",
		"Panic - calm me",
		"Inflate my BCD",
		"Tow me to the boat",
		"Call for evacuation",
		"Oxygen needed at surface",
		"First aid needed",
		"Head injury",
		"Bleeding",
		"Venomous sting",
		"Bite injury",
		"Hypothermia setting in",
		"Exhausted - cannot swim",
		"Mask lost - guide me",
		"Rope me in",
		"Abort and debrief",
		"All clear - false alarm",
	},
	General: {
		"Yes",
		"No",
		"Maybe",
		"I do not understand",
		"Repeat please",
		"Write it on the slate",
		"Look at me",
		"Look there",
		"Listen",
		"Depth 5 meters",
		"Depth 10 meters",
		"Depth 15 meters",
		"Depth 20 meters",
		"Time 5 minutes",
		"Time 10 minutes",
		"Time 20 minutes",
		"Time 30 minutes",
		"Number 1",
		"Number 2",
		"Number 3",
		"Number 4",
		"Number 5",
		"Number 10",
		"Number 50",
		"Number 100",
		"Good job",
		"Thank you",
		"Sorry",
		"Hello",
		"Goodbye",
	},
}

// commonTexts are the twenty signals the app surfaces prominently.
var commonTexts = map[string]bool{
	"OK?":                       true,
	"OK!":                       true,
	"Something is wrong":        true,
	"Help me":                   true,
	"Emergency - surface now":   true,
	"Go up":                     true,
	"Go down":                   true,
	"Stop":                      true,
	"Follow me":                 true,
	"This way":                  true,
	"How much air do you have?": true,
	"Air low - 50 bar":          true,
	"Out of air":                true,
	"Share air - octopus":       true,
	"End the dive":              true,
	"Stay together":             true,
	"Look - shark":              true,
	"Yes":                       true,
	"No":                        true,
	"Come here":                 true,
}

var codebook []Message

func init() {
	codebook = make([]Message, 0, NumMessages)
	id := uint8(0)
	for c := Category(0); c < numCategories; c++ {
		for _, text := range perCategoryTexts[c] {
			codebook = append(codebook, Message{
				ID:       id,
				Text:     text,
				Category: c,
				Common:   commonTexts[text],
			})
			id++
		}
	}
}

// Messages returns the full 240-message codebook in ID order. The
// slice is shared; callers must not modify it.
func Messages() []Message { return codebook }

// ByID looks a message up by its over-the-air code.
func ByID(id uint8) (Message, bool) {
	if int(id) >= len(codebook) {
		return Message{}, false
	}
	return codebook[id], true
}

// ByText finds the message with the exact text.
func ByText(text string) (Message, bool) {
	for _, m := range codebook {
		if m.Text == text {
			return m, true
		}
	}
	return Message{}, false
}

// ByCategory returns the 30 messages of one category.
func ByCategory(c Category) []Message {
	var out []Message
	for _, m := range codebook {
		if m.Category == c {
			out = append(out, m)
		}
	}
	return out
}

// Common returns the twenty prominently-displayed messages.
func Common() []Message {
	var out []Message
	for _, m := range codebook {
		if m.Common {
			out = append(out, m)
		}
	}
	return out
}

// Search returns messages whose text contains the query
// (case-insensitive), mirroring the app's filter box.
func Search(query string) []Message {
	q := strings.ToLower(query)
	var out []Message
	for _, m := range codebook {
		if strings.Contains(strings.ToLower(m.Text), q) {
			out = append(out, m)
		}
	}
	return out
}
